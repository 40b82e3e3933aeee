"""End-to-end CLI fault tolerance: kill mid-grid, resume, exit codes.

The subprocess tests are the acceptance scenario of the fault-tolerant
engine: a grid killed at cell N leaves a checkpoint holding cells
0..N-1, ``--resume`` finishes only the missing cells, and the final CSV
is byte-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.api.errors import EXIT_PARTIAL
from repro.harness import faults

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
RUN_ARGS = ["run", "fig10", "--mixes", "Q1", "Q2", "--accesses", "1500"]


def _run_cli(args, tmp_path, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TRACE_CACHE_DIR"] = str(tmp_path / "traces")
    env.pop(faults.INJECT_ENV, None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.fixture(scope="module")
def baseline_csv(tmp_path_factory):
    """The uninterrupted run every fault scenario must reproduce."""
    tmp_path = tmp_path_factory.mktemp("baseline")
    out = tmp_path / "base.csv"
    proc = _run_cli([*RUN_ARGS, "--export", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


class TestKillAndResume:
    @pytest.mark.parametrize("action", ["sigkill", "fatal"])
    def test_killed_grid_checkpoints_and_resumes(
        self, tmp_path, baseline_csv, action
    ):
        out = tmp_path / "out.csv"
        ckpt = tmp_path / "out.csv.ckpt.jsonl"
        proc = _run_cli(
            [*RUN_ARGS, "--export", str(out)],
            tmp_path,
            extra_env=faults.injection_env({1: action}),
        )
        if action == "sigkill":
            assert proc.returncode == -signal.SIGKILL
        else:
            assert proc.returncode not in (0, 2, 3)  # uncontrolled crash
        assert not out.exists()  # died before export
        # The checkpoint durably holds the cell completed before the kill.
        lines = [
            json.loads(line) for line in ckpt.read_text().splitlines() if line
        ]
        assert sum(1 for rec in lines if rec.get("kind") == "cell") == 1

        resumed = _run_cli(
            [*RUN_ARGS, "--export", str(out), "--resume", str(ckpt)], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed 1 cell(s)" in resumed.stderr
        assert out.read_bytes() == baseline_csv

    def test_resume_of_complete_checkpoint_recomputes_nothing(
        self, tmp_path, baseline_csv
    ):
        out = tmp_path / "out.csv"
        ckpt = tmp_path / "out.csv.ckpt.jsonl"
        first = _run_cli([*RUN_ARGS, "--export", str(out)], tmp_path)
        assert first.returncode == 0, first.stderr
        out.unlink()
        again = _run_cli(
            [*RUN_ARGS, "--export", str(out), "--resume", str(ckpt)], tmp_path
        )
        assert again.returncode == 0, again.stderr
        assert "resumed 2 cell(s)" in again.stderr
        assert out.read_bytes() == baseline_csv


class TestGracefulDegradation:
    def test_permanent_failure_exports_partial_and_exits_3(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = _run_cli(
            [*RUN_ARGS, "--export", str(out)],
            tmp_path,
            extra_env=faults.injection_env({1: "raise"}),
        )
        assert proc.returncode == EXIT_PARTIAL
        assert "FAILED" not in proc.stdout  # table shows completed rows only
        assert "1 failed cell(s)" in proc.stderr
        assert "InjectedFault" in proc.stderr
        # Partial export: Q1's row made it, Q2's didn't.
        text = out.read_text()
        assert "Q1" in text and "Q2" not in text
        # The manifest records the failure, structured.
        manifest = json.loads(
            (tmp_path / "out.csv.manifest.json").read_text()
        )
        assert manifest["status"] == "partial"
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["exc_type"] == "InjectedFault"
        assert manifest["failures"][0]["mix"] == "Q2"

    def test_exit_code_3_in_process(self, capsys):
        with faults.inject({1: "raise"}):
            rc = main(RUN_ARGS)
        captured = capsys.readouterr()
        assert rc == EXIT_PARTIAL
        assert "Q1" in captured.out
        assert "failed cell(s)" in captured.err
