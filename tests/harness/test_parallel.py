"""Parallel experiment engine: determinism, ordering and fallback."""

import os

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    AnttCell,
    GridCell,
    antt_cell,
    drive_cell,
    resolve_jobs,
    run_grid,
)
from repro.harness.runner import ExperimentSetup

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1_500)


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _boom(x):
    raise ValueError(f"cell {x}")


class TestResolveJobs:
    def test_default_is_serial(self):
        # No jobs argument: every cell runs in this process.
        assert run_grid(_pid, range(3)) == [os.getpid()] * 3

    def test_auto_and_zero_mean_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestRunGrid:
    def test_preserves_order(self):
        assert run_grid(_square, range(10), jobs=1) == [x * x for x in range(10)]

    def test_parallel_matches_serial(self):
        serial = run_grid(_square, range(8), jobs=1)
        parallel_result = run_grid(_square, range(8), jobs=4)
        assert parallel_result == serial

    def test_empty_grid(self):
        assert run_grid(_square, [], jobs=4) == []

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("fork refused")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", BrokenPool)
        assert run_grid(_square, range(6), jobs=4) == [x * x for x in range(6)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            run_grid(_boom, range(3), jobs=1)

    def test_worker_exception_propagates_from_pool(self):
        # No failure collector installed: the pool path raises the
        # cell's own exception, as the in-process path does.
        with pytest.raises(ValueError, match="cell 0"):
            run_grid(_boom, range(3), jobs=2)


class TestSimulationCells:
    """Parallel workers reproduce serial simulation results exactly."""

    def test_drive_cells_parallel_equals_serial(self):
        cells = [
            GridCell(scheme=scheme, mix=mix, setup=SETUP)
            for mix in ("Q1", "Q2")
            for scheme in ("alloy", "bimodal")
        ]
        serial = run_grid(drive_cell, cells, jobs=1)
        fanned = run_grid(drive_cell, cells, jobs=4)
        assert fanned == serial
        assert all(isinstance(stats, dict) and stats["accesses"] for stats in serial)

    def test_antt_cells_parallel_equals_serial(self):
        cells = [
            AnttCell(scheme="alloy", mix="Q1", setup=SETUP, warmup_fraction=0.5),
            AnttCell(scheme="bimodal", mix="Q1", setup=SETUP, warmup_fraction=0.5),
        ]
        serial = run_grid(antt_cell, cells, jobs=1)
        fanned = run_grid(antt_cell, cells, jobs=2)
        assert fanned == serial
        assert all(antt >= 1.0 for antt in serial)

    def test_jobs_argument_routes_figures(self):
        """A figure grid at jobs=4 equals its serial run, dict-equal."""
        from repro.harness.experiments.performance import fig8b_hit_rate

        serial = fig8b_hit_rate(setup=SETUP, mix_names=["Q1"])
        fanned = fig8b_hit_rate(setup=SETUP, mix_names=["Q1"], jobs=4)
        assert fanned == serial
