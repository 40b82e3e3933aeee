"""The repro.api facade: validation, execution, request-only config."""

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

    def test_setup_free_experiment_rejects_mixes_and_cores(self):
        """Tables and Figure 3 run no workload: a mix or core count would
        be ignored, so the request is refused, naming the experiment."""
        with pytest.raises(api.RequestError, match="table1 .* takes no mixes$"):
            api.grid_request("table1", mixes=("Q2",))
        with pytest.raises(api.RequestError, match="table3 .* takes no cores$"):
            api.grid_request("table3", cores=8)
        with pytest.raises(api.RequestError, match="fig3 .* takes no mixes or cores"):
            api.grid_request("fig3", mixes=("Q1",), cores=4)
        assert api.grid_request("table1").experiment == "table1"

    def test_jobs_auto_resolves_to_zero(self):
        assert api.grid_request("fig10", jobs="auto").jobs == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: api.sim_request("alloy", "Q1", **kw),
            lambda **kw: api.grid_request("fig10", **kw),
            lambda **kw: api.dse_request(**kw),
        ],
        ids=["sim", "grid", "dse"],
    )
    @pytest.mark.parametrize(
        "setting, needle",
        [
            ({"scale": 3}, r"scale must be a power of two \(got 3\)"),
            ({"scale": 24}, r"scale must be a power of two \(got 24\)"),
            ({"seed": -1}, r"seed must be >= 0 \(got -1\)"),
            ({"deadline_s": float("nan")}, r"deadline_s must be finite .*got nan"),
            ({"deadline_s": float("inf")}, r"deadline_s must be finite .*got inf"),
            ({"scale": 16.0}, r"scale must be an integer \(got 16.0\)"),
            ({"seed": "1"}, r"seed must be an integer \(got '1'\)"),
            ({"accesses_per_core": "300"}, r"accesses_per_core must be an integer"),
            ({"deadline_s": "5"}, r"deadline_s must be a number \(got '5'\)"),
        ],
        ids=[
            "scale3", "scale24", "seed", "deadline-nan", "deadline-inf",
            "scale-float", "seed-str", "accesses-str", "deadline-str",
        ],
    )
    def test_bad_common_setting_is_refused(self, build, setting, needle):
        """Each would otherwise fail every cell after the run starts, or
        raise a TypeError that is not a refusal."""
        with pytest.raises(api.RequestError, match=needle):
            build(**setting)

    def test_experiment_catalog_backs_validation(self):
        # Every catalogued id must build a valid request with defaults.
        for name in api.experiment_ids():
            assert api.grid_request(name).experiment == name

    @pytest.mark.parametrize(
        "kind, setting, needle",
        [
            ("sim", {"scheme": ["alloy"]}, r"scheme must be a string \(got \['alloy'\]\)"),
            ("sim", {"mix": ["Q1"]}, r"mix must be a string \(got \['Q1'\]\)"),
            ("sim", {"cores": "4"}, r"cores must be an integer \(got '4'\)"),
            ("sim", {"window": "16"}, r"window must be an integer \(got '16'\)"),
            ("sim", {"warmup_fraction": "0.5"}, r"warmup_fraction must be a number"),
            ("grid", {"experiment": ["fig10"]}, r"experiment must be a string"),
            ("grid", {"mixes": "Q1"}, r"mixes must be a list of names \(got 'Q1'\)"),
            ("grid", {"cores": "4"}, r"cores must be an integer \(got '4'\)"),
            ("grid", {"jobs": "2"}, r"jobs must be an integer \(got '2'\)"),
            ("dse", {"mixes": "Q1"}, r"mixes must be a list of names \(got 'Q1'\)"),
            ("dse", {"cores": "4"}, r"cores must be an integer \(got '4'\)"),
            ("dse", {"jobs": "2"}, r"jobs must be an integer \(got '2'\)"),
            ("dse", {"sample_rate": "1"}, r"sample_rate must be a number \(got '1'\)"),
            ("dse", {"max_frontier": "8"}, r"max_frontier must be an integer"),
        ],
        ids=[
            "sim-scheme", "sim-mix", "sim-cores", "sim-window", "sim-warmup",
            "grid-experiment", "grid-mixes", "grid-cores", "grid-jobs",
            "dse-mixes", "dse-cores", "dse-jobs", "dse-sample-rate",
            "dse-max-frontier",
        ],
    )
    def test_mistyped_field_is_refused(self, kind, setting, needle):
        """A wire payload carries any JSON value: each field is refused by
        type before a comparison would raise TypeError on it."""
        build, validate = {
            "sim": (lambda: api.sim_request("alloy", "Q1"), api.validate_sim),
            "grid": (lambda: api.grid_request("fig10"), api.validate_grid),
            "dse": (api.dse_request, api.validate_dse),
        }[kind]
        wire = api.to_wire(build())
        wire.update(setting)
        with pytest.raises(api.RequestError, match=needle):
            validate(api.from_wire(wire))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: api.grid_request("fig10", mixes="Q1"),
            lambda: api.dse_request(mixes="Q1"),
        ],
        ids=["grid", "dse"],
    )
    def test_lone_mix_name_is_not_split(self, build):
        """A string is refused as one value, not as one mix per letter."""
        with pytest.raises(api.RequestError, match=r"mixes must be a list of names"):
            build()


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

    def test_run_grid_passes_request_jobs(self, monkeypatch):
        # The worker count travels as an argument, down to the grid.
        from repro.harness.experiments import bandwidth

        seen = []
        real = bandwidth.run_grid

        def spy(func, cells, *, jobs=1):
            seen.append(jobs)
            return real(func, cells, jobs=jobs)

        monkeypatch.setattr(bandwidth, "run_grid", spy)
        request = api.grid_request(
            "fig10", mixes=("Q1",), accesses_per_core=600, jobs=2
        )
        assert api.run_grid(request).status == "ok"
        assert seen == [2]

    def test_ablation_honours_mixes(self):
        from repro.harness.experiments import ablation_threshold

        request = api.grid_request(
            "abl-threshold", mixes=("Q2",), accesses_per_core=300
        )
        rows = api.run_grid(request).rows
        direct = ablation_threshold(
            setup=api.grid_setup(request), mix_names=["Q2"]
        )
        assert list(rows) == direct
        assert rows and all(row["mix"] == "Q2" for row in rows)

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
