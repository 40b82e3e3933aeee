"""The repro.api facade: validation, execution, env scoping."""

import os
import warnings

import pytest

from repro import api


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(api.RequestError, match="unknown scheme 'nope'"):
            api.sim_request("nope", "Q1")

    def test_unknown_mix(self):
        with pytest.raises(api.RequestError, match="unknown mix 'Z9' for 4 cores"):
            api.sim_request("alloy", "Z9")

    def test_bad_cores(self):
        with pytest.raises(api.RequestError, match=r"cores must be 4, 8 or 16 \(got 5\)"):
            api.sim_request("alloy", "Q1", cores=5)

    def test_bad_accesses(self):
        with pytest.raises(api.RequestError, match="accesses_per_core must be positive"):
            api.sim_request("alloy", "Q1", accesses_per_core=0)

    def test_bad_backend(self):
        with pytest.raises(api.RequestError, match="removed in API schema 4"):
            api.sim_request("alloy", "Q1", backend="turbo")

    def test_bad_warmup_fraction(self):
        with pytest.raises(api.RequestError, match="warmup_fraction"):
            api.sim_request("alloy", "Q1", warmup_fraction=1.5)

    def test_unknown_experiment(self):
        with pytest.raises(api.RequestError, match="unknown experiment 'nope'"):
            api.grid_request("nope")

    def test_unknown_grid_mixes_listed(self):
        with pytest.raises(
            api.RequestError, match=r"unknown mix\(es\) NOPE for 4 cores"
        ):
            api.grid_request("fig10", mixes=("Q1", "NOPE"))

    def test_negative_jobs(self):
        with pytest.raises(api.RequestError, match="jobs must be >= 0"):
            api.grid_request("fig10", jobs=-1)

    def test_jobs_auto_resolves_to_zero(self):
        assert api.grid_request("fig10", jobs="auto").jobs == 0

    def test_experiment_catalog_backs_validation(self):
        # Every catalogued id must build a valid request with defaults.
        for name in api.experiment_ids():
            assert api.grid_request(name).experiment == name


class TestDseValidation:
    def test_bad_cores(self):
        with pytest.raises(api.RequestError, match=r"cores must be 4, 8 or 16"):
            api.dse_request(cores=6)

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_bad_sample_rate(self, rate):
        with pytest.raises(api.RequestError, match=r"sample_rate"):
            api.dse_request(sample_rate=rate)

    def test_bad_max_frontier(self):
        with pytest.raises(api.RequestError, match="max_frontier must be >= 1"):
            api.dse_request(max_frontier=0)

    def test_unknown_mixes_listed(self):
        with pytest.raises(
            api.RequestError, match=r"unknown mix\(es\) NOPE for 4 cores"
        ):
            api.dse_request(mixes=("Q1", "NOPE"))

    def test_negative_jobs(self):
        with pytest.raises(api.RequestError, match="jobs must be >= 0"):
            api.dse_request(jobs=-1)

    def test_jobs_auto_resolves_to_zero(self):
        assert api.dse_request(jobs="auto").jobs == 0

    def test_defaults_validate(self):
        request = api.dse_request()
        assert request.jobs == 1
        assert request.sample_rate == 1.0


class TestRequestIsTheConfiguration:
    def test_env_jobs_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            request = api.grid_request("fig10")
        assert request.jobs == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: api.sim_request("alloy", "Q1", **kw),
            lambda **kw: api.grid_request("fig10", **kw),
            lambda **kw: api.dse_request(**kw),
        ],
        ids=["sim", "grid", "dse"],
    )
    def test_stale_backend_is_refused(self, build):
        with pytest.raises(api.RequestError, match="vectorized drive backend was removed"):
            build(backend="vectorized")

    def test_scalar_backend_is_accepted_and_ignored(self):
        default = api.sim_request("alloy", "Q1")
        assert api.sim_request("alloy", "Q1", backend="scalar") == default
        assert api.sim_request("alloy", "Q1", backend=None) == default
        assert api.grid_request("fig10", backend="scalar") == api.grid_request("fig10")
        assert api.dse_request(backend="scalar") == api.dse_request()


class TestExecution:
    def test_run_sim_matches_direct_runner(self):
        from repro.harness.runner import ExperimentSetup, run_scheme_on_mix

        request = api.sim_request("alloy", "Q1", accesses_per_core=1500)
        result = api.run_sim(request)
        direct = run_scheme_on_mix(
            "alloy",
            "Q1",
            setup=ExperimentSetup(num_cores=4, accesses_per_core=1500, seed=1),
        )
        assert result.records == direct.accesses
        assert result.end_time == direct.end_time
        assert result.stats == dict(direct.stats)

    def test_run_sim_is_deterministic(self):
        request = api.sim_request("bimodal", "Q1", accesses_per_core=1200)
        assert api.run_sim(request).stats == api.run_sim(request).stats

    def test_run_grid_and_progress_events(self):
        request = api.grid_request("fig10", mixes=("Q1",), accesses_per_core=800)
        events = []
        result = api.run_grid(request, progress=events.append)
        assert result.status == "ok"
        assert result.failures == ()
        assert result.rows
        assert events, "expected per-cell progress events"
        assert all(e.stage == "cell" for e in events)
        assert events[-1].completed == events[-1].total

    def test_run_grid_scopes_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        request = api.grid_request("fig10", mixes=("Q1",), accesses_per_core=600)
        api.run_grid(request)
        assert "REPRO_JOBS" not in os.environ

    def test_run_grid_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "grid.ckpt.jsonl")
        request = api.grid_request("fig10", mixes=("Q1",), accesses_per_core=600)
        first = api.run_grid(request, checkpoint_path=path)
        assert first.resumed_cells == 0
        second = api.run_grid(request, checkpoint_path=path, resume=True)
        assert second.resumed_cells > 0
        assert second.rows == first.rows

    def test_grid_result_survives_the_wire(self):
        request = api.grid_request("fig10", mixes=("Q1",), accesses_per_core=600)
        result = api.run_grid(request)
        assert api.decode_line(api.encode_line(result)).rows == result.rows

    def test_stats_result_shape(self):
        stats = api.stats_result(server={"jobs": 1})
        assert stats.server == {"jobs": 1}
        assert "memory_hits" in stats.trace_cache
        assert isinstance(stats.metrics, dict)


class TestDseExecution:
    """run_dse rides the grid execution contract end to end."""

    def _request(self):
        return api.dse_request(mixes=("Q1",), accesses_per_core=600, jobs=2)

    def test_run_dse_result_shape(self):
        events = []
        result = api.run_dse(self._request(), progress=events.append)
        assert result.status == "ok"
        assert result.failures == ()
        assert len(result.rows) == 36
        assert result.winner["sim_fraction"] == 1.0
        assert result.stats["speedup"] >= 5.0
        assert events and all(e.stage == "cell" for e in events)

    def test_run_dse_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "dse.ckpt.jsonl")
        request = self._request()
        first = api.run_dse(request, checkpoint_path=path)
        assert first.resumed_cells == 0
        second = api.run_dse(request, checkpoint_path=path, resume=True)
        assert second.resumed_cells > 0
        assert second.rows == first.rows
        assert second.winner == first.winner

    def test_dse_result_survives_the_wire(self):
        result = api.run_dse(self._request())
        revived = api.decode_line(api.encode_line(result))
        assert revived.rows == result.rows
        assert revived.stats == result.stats
