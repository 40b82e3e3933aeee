"""perfbench gate and CLI validation error paths (no simulation runs)."""

import json

import pytest

from repro.harness.perfbench import (
    ThroughputResult,
    gate_against_history,
    main,
)


def _result(scheme="bimodal", mix="Q1", mode="fast", rps=1000.0):
    return ThroughputResult(
        mode=mode,
        scheme=scheme,
        mix=mix,
        records=800,
        best_seconds=800 / rps,
        records_per_second=rps,
        repeats=1,
        stats={},
    )


def _history(tmp_path, rps=1000.0, later=()):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps([
        {
            "timestamp": "2026-01-01T00:00:00",
            "measurements": [
                {"mode": "fast", "scheme": "bimodal", "mix": "Q1",
                 "records_per_second": rps},
            ],
        },
        *later,
    ]))
    return path


def _entry(backend, rps):
    """A later history entry recorded with an explicit ``backend``."""
    return {
        "timestamp": "2026-02-01T00:00:00",
        "measurements": [
            {"mode": "fast", "scheme": "bimodal", "mix": "Q1",
             "backend": backend, "records_per_second": rps},
        ],
    }


class TestGate:
    def test_matching_cell_passes(self, tmp_path, capsys):
        path = _history(tmp_path, rps=1000.0)
        assert gate_against_history([_result(rps=950.0)], path) == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_exits_4(self, tmp_path, capsys):
        path = _history(tmp_path, rps=1000.0)
        assert gate_against_history([_result(rps=100.0)], path) == 4
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_cell_is_one_line_error(self, tmp_path, capsys):
        path = _history(tmp_path)
        assert gate_against_history([_result(mix="Q7")], path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one line, no traceback
        assert "no committed baseline" in err
        assert "fast/bimodal/Q7" in err

    def test_missing_history_file_is_an_error(self, tmp_path, capsys):
        assert gate_against_history([_result()], tmp_path / "none.json") == 2
        assert "no committed baseline" in capsys.readouterr().err

    def test_later_vectorized_row_is_not_a_baseline(self, tmp_path, capsys):
        # Rows of the removed vectorized engine would trip a scalar cell.
        path = _history(tmp_path, rps=1000.0, later=[_entry("vectorized", 174_600.0)])
        assert gate_against_history([_result(rps=950.0)], path) == 0
        out = capsys.readouterr().out
        assert "committed 1000 records/sec" in out and "ok" in out

    def test_later_scalar_row_is_the_baseline(self, tmp_path, capsys):
        path = _history(tmp_path, rps=1000.0, later=[_entry("scalar", 2000.0)])
        assert gate_against_history([_result(rps=950.0)], path) == 4
        assert "committed 2000 records/sec" in capsys.readouterr().out

    def test_allow_missing_restores_skip(self, tmp_path, capsys):
        path = _history(tmp_path)
        code = gate_against_history(
            [_result(mix="Q7")], path, allow_missing=True
        )
        assert code == 0
        assert "skipping" in capsys.readouterr().out


class TestCliValidation:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--scheme", "nosuch"], "unknown scheme"),
            (["--schemes", "bimodal,nosuch"], "unknown scheme"),
            (["--mix", "Z9"], "unknown mix"),
            (["--mixes", "Q1,Z9"], "unknown mix"),
            (["--modes", "warp"], "unknown mode"),
            (["--cores", "6"], "--cores must be"),
        ],
    )
    def test_usage_errors_are_one_line(self, argv, needle, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("perfbench: error:")
        assert needle in err

    def test_unknown_scheme_error_lists_registry(self, capsys):
        main(["--scheme", "nosuch"])
        err = capsys.readouterr().err
        assert "bimodal" in err and "alloy" in err
