"""Deterministic trace sampling and the ghost-pass counters.

The ghost caches of :mod:`repro.mrc.ghost` answer the hit-rate part of
a design sweep in one O(trace) pass over the materialized address
column (the zero-copy SoA view from
``trace_cache.materialized_columns()``). This module holds the two
helpers every caller of :func:`~repro.mrc.ghost.ghost_pass` shares:
:func:`sample_addresses`, which thins the stream, and
:func:`record_pass_metrics`, which counts the pass.

Sampling
--------
``sample_rate < 1`` keeps a deterministic subset of the trace, chosen
by hashing the 4 KB *frame* of each address (SHARDS-style spatial
sampling): a frame is either fully in or fully out, so every ghost
geometry sees a consistent sub-stream and reuse distances inside kept
frames survive intact. The hash is a seed-salted splitmix64 finalizer
over the frame number — never ``hash()`` or ambient entropy, so a
(seed, rate) pair always selects the same records (the ``determinism``
simlint rule enforces this for the whole package). ``ghost_pass``
scales ghost capacities by the same rate (rounded to the nearest power
of two) so a sampled pass estimates the *full-trace* hit rate. Bounds
and methodology: ``docs/dse.md``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["record_pass_metrics", "sample_addresses"]

_MASK64 = (1 << 64) - 1
_FRAME_BITS = 12  # 4 KB sampling frames
# splitmix64 finalizer constants: a single multiply has no avalanche
# into the high bits for small frame numbers (sequential frames would
# all share one keep/drop fate), so the frame hash needs the full
# multiply/xorshift mixing chain.
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_SEED_MIX = 0x9E3779B97F4A7C15  # 64-bit golden ratio


def sample_addresses(addresses, rate: float, seed: int) -> list[int]:
    """Deterministic 4 KB-frame subset of an address stream.

    Keeps an address iff ``hash(frame, seed)``'s top 24 bits fall under
    ``rate·2^24`` — a pure function of (address, seed). Any sequence of
    non-negative ints is taken as a uint64 array and hashed vectorized.
    """
    a = np.asarray(addresses, dtype=np.uint64)
    if rate >= 1.0:
        return a.tolist()
    threshold = int(rate * (1 << 24))
    salt = (seed * _SEED_MIX) & _MASK64
    h = (a >> np.uint64(_FRAME_BITS)) ^ np.uint64(salt)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_A)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_B)
    h = h ^ (h >> np.uint64(31))
    keep = ((h >> np.uint64(40)) & np.uint64(0xFFFFFF)) < threshold
    return a[keep].tolist()


def record_pass_metrics(total: int, sampled: int, walks: int) -> None:
    """Count one ghost pass: records in, records kept, distinct walks run."""
    from repro.obs import get_metrics

    metrics = get_metrics()
    metrics.add("mrc.passes")
    metrics.add("mrc.records", total)
    metrics.add("mrc.sampled_records", sampled)
    metrics.add("mrc.ghosts", walks)

