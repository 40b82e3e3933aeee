"""FaultPolicy, CellFailure, FailureCollector and the serial timeout."""

import time

import pytest

from repro.harness import faults
from repro.harness.faults import (
    CellFailure,
    CellTimeoutError,
    FailureCollector,
    FaultPolicy,
)


class TestFaultPolicy:
    def test_defaults(self, monkeypatch):
        for name in (faults.RETRIES_ENV, faults.TIMEOUT_ENV, faults.BACKOFF_ENV):
            monkeypatch.delenv(name, raising=False)
        policy = FaultPolicy.from_env()
        assert policy.retries == 0
        assert policy.timeout_s is None

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv(faults.RETRIES_ENV, "3")
        monkeypatch.setenv(faults.TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(faults.BACKOFF_ENV, "0.01")
        policy = FaultPolicy.from_env()
        assert policy.retries == 3
        assert policy.timeout_s == 2.5
        assert policy.backoff_s == 0.01

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(faults.RETRIES_ENV, "many")
        monkeypatch.setenv(faults.TIMEOUT_ENV, "-4")
        policy = FaultPolicy.from_env()
        assert policy.retries == 0
        assert policy.timeout_s is None

    def test_backoff_is_deterministic(self):
        policy = FaultPolicy(retries=3, backoff_s=0.05)
        first = [policy.backoff(7, attempt) for attempt in (1, 2, 3)]
        second = [policy.backoff(7, attempt) for attempt in (1, 2, 3)]
        assert first == second  # pure function of (index, attempt)

    def test_backoff_grows_and_caps(self):
        policy = FaultPolicy(retries=10, backoff_s=0.05)
        values = [policy.backoff(0, attempt) for attempt in range(1, 12)]
        # Exponential envelope: each bound doubles until the cap.
        assert values[0] < values[2] < values[4]
        assert max(values) <= 5.0

    def test_backoff_jitter_varies_by_index(self):
        policy = FaultPolicy(retries=1, backoff_s=0.05)
        assert policy.backoff(0, 1) != policy.backoff(1, 1)

    def test_zero_backoff(self):
        assert FaultPolicy(backoff_s=0.0).backoff(3, 2) == 0.0


class TestCellFailure:
    def test_from_exception_captures_traceback(self):
        try:
            raise ValueError("bad cell config")
        except ValueError as exc:
            failure = CellFailure.from_exception(
                4, exc, attempts=2, wall_s=0.5, scheme="alloy", mix="Q7"
            )
        assert failure.exc_type == "ValueError"
        assert failure.message == "bad cell config"
        assert failure.attempts == 2
        assert "ValueError" in failure.traceback
        d = failure.to_dict()
        assert d["index"] == 4 and d["scheme"] == "alloy" and d["mix"] == "Q7"

    def test_describe_is_one_line(self):
        failure = CellFailure(
            index=3,
            exc_type="RuntimeError",
            message="boom\nwith detail",
            attempts=1,
            scheme="bimodal",
            mix="Q2",
        )
        line = failure.describe()
        assert "\n" not in line
        assert "RuntimeError" in line and "boom" in line
        assert "scheme=bimodal" in line and "mix=Q2" in line


class TestFailureCollector:
    def test_scoping_and_nesting(self):
        assert faults.active_collector() is None
        with faults.collect_failures() as outer:
            assert faults.active_collector() is outer
            with faults.collect_failures() as inner:
                assert faults.active_collector() is inner
            assert faults.active_collector() is outer
        assert faults.active_collector() is None

    def test_truthiness_and_dicts(self):
        collector = FailureCollector()
        assert not collector and len(collector) == 0
        collector.record(
            CellFailure(index=0, exc_type="E", message="m", attempts=1)
        )
        assert collector and len(collector) == 1
        assert collector.as_dicts()[0]["exc_type"] == "E"


class TestCellTimeout:
    def test_expires(self):
        with pytest.raises(CellTimeoutError):
            with faults.cell_timeout(0.05):
                time.sleep(5)

    def test_noop_when_disabled(self):
        with faults.cell_timeout(None):
            pass
        with faults.cell_timeout(0):
            pass

    def test_timer_cleared_after_scope(self):
        with faults.cell_timeout(0.2):
            pass
        time.sleep(0.25)  # would fire now if the timer leaked
