"""RetryPolicy: deterministic backoff and transient-error classification."""

import pytest

from repro.api import facade
from repro.api.errors import ServiceError
from repro.api.retry import RetryPolicy, request_key
from repro.api.wire import WireError


def _service_error(code):
    return ServiceError(facade.api_error(code, "injected"))


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            ConnectionError("gone"),
            ConnectionResetError("reset"),
            TimeoutError("slow"),
            OSError(32, "broken pipe"),
            _service_error("overloaded"),
            _service_error("draining"),
        ],
    )
    def test_transient_failures_retry(self, exc):
        assert RetryPolicy().should_retry(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            _service_error("bad-request"),
            _service_error("bad-schema"),
            _service_error("deadline_exceeded"),
            _service_error("internal"),
            WireError("garbled frame"),
            ValueError("nope"),
        ],
    )
    def test_request_properties_do_not_retry(self, exc):
        # A request the server *rejected* (or a frame the codec refused)
        # will fail identically on resubmit — retrying hides the bug.
        assert not RetryPolicy().should_retry(exc)


class TestBackoff:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy()
        a = [policy.delay_s("k", n) for n in range(1, 6)]
        b = [policy.delay_s("k", n) for n in range(1, 6)]
        assert a == b

    def test_delays_grow_exponentially_until_cap(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_cap_s=0.5)
        delays = [policy.delay_s("k", n) for n in range(1, 8)]
        # Base doubles every attempt (jitter only adds < 1x on top)...
        assert delays[0] < delays[2] < delays[4]
        # ...and the cap bounds the tail.
        assert all(d <= 0.5 for d in delays)
        assert delays[-1] == 0.5

    def test_different_keys_jitter_differently(self):
        policy = RetryPolicy()
        assert policy.delay_s("key-one", 1) != policy.delay_s("key-two", 1)

    def test_one_schedule_for_requests_and_grid_cells(self):
        """Client retries and grid-cell retries share one schedule: the
        same key, attempt, base and cap give the same delay, and the
        pinned delays are the ones both policies gave when each kept
        its own copy of the formula."""
        from repro.harness.faults import FaultPolicy

        cells = FaultPolicy(retries=3, backoff_s=0.05)
        requests = RetryPolicy(backoff_s=0.05, backoff_cap_s=5.0)
        assert [cells.backoff(7, n) for n in (1, 2, 3)] == [
            requests.delay_s("7", n) for n in (1, 2, 3)
        ]
        assert [cells.backoff(7, n).hex() for n in (1, 2, 3)] == [
            "0x1.794d725266667p-4",
            "0x1.3e0bb5f733334p-3",
            "0x1.b4f9e764ccccdp-3",
        ]
        capped = RetryPolicy(backoff_s=0.3, backoff_cap_s=2.0)
        assert [capped.delay_s("k", n).hex() for n in (1, 2, 3, 4)] == [
            "0x1.6faa8ce6ccccdp-2",
            "0x1.2673b85a66666p+0",
            "0x1.5482f58accccdp+0",
            "0x1.0000000000000p+1",
        ]


class TestRequestKey:
    def test_equal_requests_share_a_key(self):
        r1 = facade.sim_request("alloy", "Q1", accesses_per_core=500)
        r2 = facade.sim_request("alloy", "Q1", accesses_per_core=500)
        assert request_key("sim", r1) == request_key("sim", r2)

    def test_key_differs_by_request_and_verb(self):
        r1 = facade.sim_request("alloy", "Q1", accesses_per_core=500)
        r2 = facade.sim_request("alloy", "Q1", accesses_per_core=501)
        assert request_key("sim", r1) != request_key("sim", r2)
        assert request_key("ping", None) == "ping"
