"""Client-side retry policy: bounded, deterministic, resumable.

Both service clients accept an optional :class:`RetryPolicy`. With one
attached, a request that fails for a *transient* reason — the TCP
connection dropped mid-stream, a read timed out against a half-open
peer, or the server answered with a retryable error code
(``overloaded``, ``draining``) — is resubmitted after an exponential
backoff, reconnecting first when the transport died.

Resubmission is safe by construction, not by hope:

* simulations are seeded and deterministic — re-running one yields the
  identical result;
* grids are content-addressed server-side (``grid_key`` over the
  canonical wire JSON), so a resubmitted grid *joins* the in-flight
  run or *resumes* its journaled checkpoint instead of recomputing,
  and the rows that come back are byte-identical to what the first
  attempt would have produced.

Backoff jitter is a pure function of ``(request key, attempt)`` via
SHA-256 — the schedule of :func:`repro.common.backoff.backoff_delay`,
which ``repro.harness.faults.FaultPolicy.backoff`` shares — so two
reruns of a test schedule identical sleeps (the project's determinism
lint bans wall-clock and unseeded randomness).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.errors import RETRYABLE_CODES, ServiceError
from repro.common.backoff import backoff_delay

__all__ = ["RetryPolicy", "request_key"]


def request_key(verb: str, request) -> str:
    """A stable per-request key for deterministic backoff jitter."""
    if request is None:
        return verb
    # Local import: wire depends on types only; retry stays leaf-light.
    from repro.api.wire import dumps_strict, to_wire

    return f"{verb}:{dumps_strict(to_wire(request))}"


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How a client retries transient failures.

    ``attempts`` is the *total* number of tries (first one included).
    Delay before retry ``n`` (1-based) is
    ``backoff_s * 2**(n-1) * (1 + jitter)`` capped at ``backoff_cap_s``,
    with ``jitter`` in [0, 1) derived from the request key.
    """

    attempts: int = 4
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0

    def should_retry(self, exc: BaseException) -> bool:
        """Whether ``exc`` is transient (connection-level or retryable code)."""
        if isinstance(exc, ServiceError):
            return exc.code in RETRYABLE_CODES
        # ConnectionError and socket.timeout/TimeoutError are OSError
        # subclasses in modern Python; any OSError here is transport
        # trouble, never a property of the request itself.
        return isinstance(exc, (OSError, TimeoutError))

    def delay_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (1-based)."""
        return backoff_delay(key, attempt, self.backoff_s, self.backoff_cap_s)
