"""Smoke test: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest repobench/test_smoke.py``.
It checks that every metric BENCHMARK.json names, and every
workload-specific metric of the ``layers:`` line, is present and finite,
and that the output checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"sweep": 300, "antt": 200, "dse": 400}
SWEEP_SCHEMES = ("alloy", "lohhill", "atcache", "footprint", "fixed512", "bimodal")
SPECIFIC = {
    "sweep": [
        "runner.loop_us_per_rec",
        "dram.bimodal.replay_match",
        *(f"scheme.{s}.self_us_per_rec" for s in SWEEP_SCHEMES),
        *(f"stats.{s}.flush_ms" for s in SWEEP_SCHEMES),
        *(f"model.{s}.{k}" for s in SWEEP_SCHEMES
          for k in ("hit_rate", "avg_read_latency_cyc", "offchip_bytes_per_access")),
        "model.bimodal.way_locator_hit_rate",
        "model.bimodal.small_access_fraction",
        "model.bimodal.metadata_rbh",
    ],
    "antt": [
        "cores.self_us_per_rec",
        "dram.bimodal.replay_match",
        "scheme.alloy.self_us_per_rec",
        "scheme.bimodal.self_us_per_rec",
        "model.alloy.hit_rate",
        "model.bimodal.way_locator_hit_rate",
        "model.antt.alloy",
        "model.antt.bimodal",
        "model.antt.improvement_pct",
    ],
    "dse": [
        "runner.loop_us_per_rec",
        "scheme.bimodal.self_us_per_rec",
        "dram.bimodal.replay_match",
        "stats.bimodal.flush_ms",
        "mrc.ghost_ns_per_rec_point",
        "mrc.sim_share",
        "model.dse.frontier_size",
        "model.dse.full_sims_equivalent",
    ],
}


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(root / "repobench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--accesses", str(TINY[workload]),
        ],
        cwd=root, capture_output=True, text=True, timeout=600, check=False,
    )


def _check_result(line: str, listed: list) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], m["name"]
        assert math.isfinite(metric["value"]), m["name"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    _check_result(proc.stdout.splitlines()[-1], SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced(workload):
    proc = _run(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    _check_result(lines[-1], SPEC["per_layer"])
    assert lines[-2].startswith("layers: ")
    layers = json.loads(lines[-2][len("layers: "):])
    for name in SPECIFIC[workload]:
        assert name in layers, name
        assert math.isfinite(layers[name]["value"]), name


def test_host_speed_sampler():
    """Samples land inside the region, are taken out, and SIGPROF is restored."""
    sys.path.insert(0, str(ROOT))
    from repobench.hostspeed import Sampler, clock

    before = signal.getsignal(signal.SIGPROF)
    sampler = Sampler()
    start = clock()
    total = sampler.time(lambda: sum(i * i for i in range(2_000_000)))
    wall = clock() - start
    assert total > 0
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < wall
    assert sampler.reference(wall) > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "repobench", ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
