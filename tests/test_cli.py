"""CLI front-end tests (python -m repro)."""

import pytest

from repro import api
from repro.__main__ import main

import repro.harness.experiments as experiments


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "table3" in out


def test_every_listed_experiment_exists():
    for name, spec in api.experiment_catalog().items():
        assert hasattr(experiments, spec.attr), f"{name} -> {spec.attr} missing"
        assert spec.default_cores in (4, 8, 16)


def _usage_exit(capsys, argv) -> str:
    """Run an argv argparse must refuse; return its stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def test_unknown_experiment(capsys):
    assert main(["run", "figure99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_static_experiment_prints_table(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "bimodal" in out


def test_static_experiment_rejects_mixes_and_cores(capsys):
    assert main(["run", "table1", "--mixes", "Q2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: table1 runs no workload, so it takes no mixes"
    ]
    assert main(["run", "table3", "--cores", "8"]) == 2
    assert "table3 runs no workload" in capsys.readouterr().err


def test_dynamic_experiment_with_mixes(capsys):
    assert main(["run", "fig2", "--mixes", "Q2", "--accesses", "1500"]) == 0
    out = capsys.readouterr().out
    assert "Q2" in out and "u8" in out


class TestSubcommands:
    def test_run_subcommand(self, capsys):
        assert main(["run", "table1"]) == 0
        captured = capsys.readouterr()
        assert "bimodal" in captured.out
        assert "deprecated" not in captured.err

    def test_positional_experiment_is_a_usage_error(self, capsys):
        # The experiment id is spelled after `run`; a bare id is refused.
        err = _usage_exit(capsys, ["table1"])
        assert "invalid choice: 'table1'" in err

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "figure99"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown experiment" in err

    def test_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        for scheme in ("alloy", "lohhill", "atcache", "footprint", "bimodal",
                       "wayloc-only", "bimodal-only", "fixed512"):
            assert scheme in out

    def test_bench_is_an_unknown_command(self, capsys):
        # Speed is measured by repobench and gated by the call budget
        # (tests/harness/test_call_budget.py); there is no bench command.
        err = _usage_exit(capsys, ["bench"])
        assert "invalid choice: 'bench'" in err

    def test_trace_out_writes_trace_and_manifests(self, tmp_path, monkeypatch):
        import json

        from repro.obs import get_tracer, install

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        previous = get_tracer()
        trace = tmp_path / "trace.jsonl"
        export = tmp_path / "rows.json"
        try:
            assert main([
                "run", "fig2", "--mixes", "Q2", "--accesses", "1000",
                "--trace-out", str(trace), "--export", str(export),
            ]) == 0
        finally:
            install(previous)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(e["name"] == "run" for e in events)
        assert any(e["name"] == "drive" for e in events)
        for artifact in (trace, export):
            manifest_path = artifact.with_name(artifact.name + ".manifest.json")
            manifest = json.loads(manifest_path.read_text())
            assert manifest["experiment"] == "fig2"
            assert manifest["seed"] == 1
            assert manifest["config_hash"]

    def test_dse_subcommand(self, capsys):
        assert main([
            "dse", "--mixes", "Q1", "--accesses", "600", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "design-space exploration" in out
        assert "winner:" in out
        assert "full-sim equivalents" in out

    def test_dse_bad_sample_rate(self, capsys):
        assert main(["dse", "--sample-rate", "0"]) == 2
        assert "sample_rate" in capsys.readouterr().err

    def test_dse_negative_seed_is_a_usage_error(self, capsys):
        assert main(["dse", "--mixes", "Q23", "--accesses", "300", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0 (got -1)\n"
        assert captured.out == ""

    def test_backend_flag_is_gone(self, capsys):
        err = _usage_exit(capsys, ["run", "fig2", "--backend", "scalar"])
        assert "unrecognized arguments: --backend" in err

    def test_jobs_flag_does_not_leak_env(self, monkeypatch, capsys):
        # --jobs travels as an argument from the request to the grid;
        # the process environment is left exactly as it was.
        import os

        from repro.harness.experiments import bandwidth

        seen = []
        real = bandwidth.run_grid

        def spy(func, cells, *, jobs=1):
            seen.append(jobs)
            return real(func, cells, jobs=jobs)

        monkeypatch.setattr(bandwidth, "run_grid", spy)
        before = dict(os.environ)
        assert main([
            "run", "fig10", "--mixes", "Q1", "--accesses", "600", "--jobs", "2",
        ]) == 0
        assert seen == [2]
        assert dict(os.environ) == before
        capsys.readouterr()


class TestConfigValidation:
    """Bad configuration gets one clean error line and exit code 2."""

    def _assert_usage_error(self, capsys, rc, needle):
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.err
        [line] = [l for l in captured.err.splitlines() if l.startswith("error:")]
        assert needle in line

    def test_bad_core_count(self, capsys):
        rc = main(["run", "fig10", "--cores", "5"])
        self._assert_usage_error(capsys, rc, "cores must be 4, 8 or 16")

    def test_unknown_mix_for_cores(self, capsys):
        rc = main(["run", "fig10", "--mixes", "Q1", "NOPE"])
        self._assert_usage_error(capsys, rc, "unknown mix(es) NOPE")

    def test_mix_from_wrong_core_count(self, capsys):
        # E-mixes belong to 8 cores; fig10 defaults to 4.
        rc = main(["run", "fig10", "--mixes", "E1"])
        self._assert_usage_error(capsys, rc, "unknown mix(es) E1 for 4 cores")

    def test_negative_accesses(self, capsys):
        rc = main(["run", "fig10", "--accesses", "-5"])
        self._assert_usage_error(capsys, rc, "accesses_per_core must be positive")

    def test_bad_scale(self, capsys):
        rc = main(["run", "fig10", "--scale", "0"])
        self._assert_usage_error(capsys, rc, "scale must be >= 1")
