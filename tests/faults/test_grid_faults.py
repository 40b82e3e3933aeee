"""Per-cell fault isolation, retries and timeouts in run_grid."""

import os
import signal
import time

import pytest

from repro.harness import faults
from repro.harness.faults import InjectedFault
from repro.harness.parallel import complete_groups, run_grid
from repro.obs import get_metrics

KILL_SENTINEL = 99
HANG_SENTINEL = 98


def _square(x):
    return x * x


def _kill_self(x):
    """Worker that dies by SIGKILL on the sentinel cell (after letting
    sibling cells finish, so pool-break attribution is deterministic)."""
    if x == KILL_SENTINEL:
        time.sleep(0.3)
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _hang(x):
    if x == HANG_SENTINEL:
        time.sleep(60)
    return x * x


def _nap(x):
    """Slow enough that the parent waits on the future with its budget."""
    time.sleep(0.05)
    return x * x


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    for name in (
        faults.RETRIES_ENV,
        faults.TIMEOUT_ENV,
        faults.INJECT_ENV,
    ):
        monkeypatch.delenv(name, raising=False)
    # Fast deterministic backoff so retry tests don't sleep for real.
    monkeypatch.setenv(faults.BACKOFF_ENV, "0.001")


class TestSerialIsolation:
    def test_injected_failure_isolates_one_cell(self):
        with faults.inject({1: "raise"}):
            with faults.collect_failures() as collector:
                results = run_grid(_square, range(4), jobs=1)
        assert results == [0, None, 4, 9]
        assert len(collector) == 1
        failure = collector.failures[0]
        assert failure.index == 1
        assert failure.exc_type == "InjectedFault"
        assert failure.attempts == 1

    def test_without_collector_exception_propagates(self):
        with faults.inject({1: "raise"}):
            with pytest.raises(InjectedFault):
                run_grid(_square, range(4), jobs=1)

    def test_failure_metrics_and_complete_groups(self):
        before = get_metrics().counter_value("grid.cell_failures")
        with faults.inject({2: "raise"}):
            with faults.collect_failures():
                results = run_grid(_square, range(6), jobs=1)
        assert get_metrics().counter_value("grid.cell_failures") == before + 1
        # Row assembly drops exactly the group containing the failure.
        groups = complete_groups(["a", "b", "c"], results, 2)
        assert [name for name, _ in groups] == ["a", "c"]


class TestRetries:
    def test_flaky_cell_recovers(self, monkeypatch):
        monkeypatch.setenv(faults.RETRIES_ENV, "2")
        retries_before = get_metrics().counter_value("grid.cell_retries")
        with faults.inject({0: "flaky:2"}):
            with faults.collect_failures() as collector:
                results = run_grid(_square, range(3), jobs=1)
        assert results == [0, 1, 4]  # deterministic despite the retry path
        assert not collector
        assert get_metrics().counter_value("grid.cell_retries") == (
            retries_before + 2
        )

    def test_retries_exhausted_records_attempt_count(self, monkeypatch):
        monkeypatch.setenv(faults.RETRIES_ENV, "1")
        with faults.inject({0: "flaky:5"}):
            with faults.collect_failures() as collector:
                results = run_grid(_square, range(2), jobs=1)
        assert results == [None, 1]
        assert collector.failures[0].attempts == 2  # 1 try + 1 retry

    def test_retry_results_match_clean_run(self, monkeypatch):
        clean = run_grid(_square, range(5), jobs=1)
        monkeypatch.setenv(faults.RETRIES_ENV, "3")
        with faults.inject({1: "flaky:1", 3: "flaky:2"}):
            with faults.collect_failures() as collector:
                flaky = run_grid(_square, range(5), jobs=1)
        assert flaky == clean
        assert not collector


class TestSerialTimeout:
    def test_hung_cell_times_out(self, monkeypatch):
        monkeypatch.setenv(faults.TIMEOUT_ENV, "0.2")
        with faults.collect_failures() as collector:
            results = run_grid(_hang, [1, HANG_SENTINEL, 3], jobs=1)
        assert results == [1, None, 9]
        assert collector.failures[0].exc_type == "CellTimeoutError"

    def test_budget_past_the_host_timer_runs_every_cell(self, monkeypatch):
        # 1e12 s overflows setitimer; the armed timer is capped instead.
        monkeypatch.setenv(faults.TIMEOUT_ENV, "1e12")
        with faults.collect_failures() as collector:
            results = run_grid(_nap, range(3), jobs=1)
        assert results == [0, 1, 4]
        assert not collector


class TestPoolIsolation:
    def test_worker_exception_isolates_one_cell(self):
        with faults.inject({2: "raise"}):
            with faults.collect_failures() as collector:
                results = run_grid(_square, range(4), jobs=2)
        assert results == [0, 1, None, 9]
        assert collector.failures[0].index == 2

    def test_flaky_cell_recovers_in_pool(self, monkeypatch):
        monkeypatch.setenv(faults.RETRIES_ENV, "2")
        with faults.inject({1: "flaky:1"}):
            with faults.collect_failures() as collector:
                results = run_grid(_square, range(4), jobs=2)
        assert results == [0, 1, 4, 9]
        assert not collector

    def test_pool_matches_serial_under_collection(self):
        with faults.inject({1: "raise"}):
            with faults.collect_failures():
                serial = run_grid(_square, range(6), jobs=1)
            with faults.collect_failures():
                pooled = run_grid(_square, range(6), jobs=3)
        assert pooled == serial

    def test_worker_sigkill_fails_only_that_cell(self):
        rebuilds_before = get_metrics().counter_value("grid.pool_rebuilds")
        with faults.collect_failures() as collector:
            results = run_grid(_kill_self, [1, 2, 3, KILL_SENTINEL], jobs=2)
        assert results[:3] == [1, 4, 9]
        assert results[3] is None
        assert collector.failures[0].exc_type == "WorkerCrashError"
        assert collector.failures[0].index == 3
        assert get_metrics().counter_value("grid.pool_rebuilds") > rebuilds_before

    def test_hung_worker_times_out_and_pool_recovers(self, monkeypatch):
        monkeypatch.setenv(faults.TIMEOUT_ENV, "0.5")
        with faults.collect_failures() as collector:
            results = run_grid(_hang, [1, 2, HANG_SENTINEL], jobs=2)
        assert results == [1, 4, None]
        assert collector.failures[0].exc_type == "CellTimeoutError"
        assert collector.failures[0].index == 2

    def test_budget_past_the_host_timer_runs_every_cell(self, monkeypatch):
        # 1e12 s overflows Future.result's lock wait; the wait is capped.
        monkeypatch.setenv(faults.TIMEOUT_ENV, "1e12")
        with faults.collect_failures() as collector:
            results = run_grid(_nap, range(3), jobs=2)
        assert results == [0, 1, 4]
        assert not collector
