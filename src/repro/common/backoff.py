"""Deterministic exponential backoff with derandomized jitter.

One schedule for both retry loops in the package, grid cells
(``repro.harness.faults.FaultPolicy``) and service requests
(``repro.api.retry.RetryPolicy``). The delay before retry ``attempt``
(1-based) is ``base_s * 2**(attempt-1) * (1 + jitter)`` capped at
``cap_s``, with ``jitter`` in [0, 1) taken from the SHA-256 of
``f"{key}:{attempt}"``: a pure function of its arguments, never of the
wall clock or a shared RNG, so two reruns schedule identical sleeps.
"""

from __future__ import annotations

import hashlib

__all__ = ["backoff_delay"]


def backoff_delay(key: object, attempt: int, base_s: float, cap_s: float) -> float:
    """Seconds to wait before retry ``attempt`` of the operation ``key``."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32
    raw = base_s * (2 ** max(0, attempt - 1))
    return min(cap_s, raw * (1.0 + jitter))
