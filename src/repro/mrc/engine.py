"""One-pass miss-ratio-curve engine over materialized traces.

The grid experiments pay one full timing simulation per design point —
O(configs × trace). This engine answers the *hit-rate* part of every
sweep in a single O(trace) pass: the materialized address column (the
zero-copy SoA view from ``trace_cache.materialized_columns()``) goes
through :func:`repro.mrc.ghost.ghost_pass`, which decodes it once per
geometry and runs each distinct tag-only walk once, so the whole
capacity × block-size × associativity × (X, Y) family resolves for less
than one timing cell (measured in ``BENCH_perf.json`` under the ``mrc``
perfbench mode; analysis in ``docs/dse.md``).

Sampling
--------
``sample_rate < 1`` keeps a deterministic subset of the trace, chosen
by hashing the 4 KB *frame* of each address (SHARDS-style spatial
sampling): a frame is either fully in or fully out, so every ghost
geometry sees a consistent sub-stream and reuse distances inside kept
frames survive intact. The hash is a seed-salted splitmix64 finalizer
over the frame number — never ``hash()`` or ambient entropy, so a
(seed, rate) pair always selects the same records (the ``determinism``
simlint rule enforces this for the whole package). The ghost pass
scales ghost capacities by the sampling rate (rounded to the nearest
power of two) so a sampled pass estimates the *full-trace* curve; each
curve point carries a binomial standard error ``sqrt(p(1-p)/n)`` over
its sampled access count. Bounds and methodology: ``docs/dse.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.mrc.ghost import AdaptiveGhost, GhostCount, LRUGhost, ghost_pass

__all__ = [
    "CurvePoint",
    "MRCResult",
    "MRCSpec",
    "mrc_pass",
    "sample_addresses",
]

_MASK64 = (1 << 64) - 1
_FRAME_BITS = 12  # 4 KB sampling frames
# splitmix64 finalizer constants: a single multiply has no avalanche
# into the high bits for small frame numbers (sequential frames would
# all share one keep/drop fate), so the frame hash needs the full
# multiply/xorshift mixing chain.
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_SEED_MIX = 0x9E3779B97F4A7C15  # 64-bit golden ratio


@dataclass(frozen=True, slots=True)
class MRCSpec:
    """One ghost-sweep request: which curves, at what fidelity.

    The three curves vary one axis at a time around the base point
    (``base_capacity``, ``base_block_size``, ``base_associativity``).
    ``xy_capacities`` adds the bi-modal occupancy sweep: for each
    capacity, every allowed (X, Y) split of a
    ``set_size``/``big_block_size`` set is estimated and the best state
    reported. ``warmup_fraction`` mirrors the timing drive: counters
    reset at the ``int(n·fraction)``-th record so estimates line up with
    measured (post-warmup) hit rates.
    """

    capacities: tuple[int, ...] = ()
    block_sizes: tuple[int, ...] = ()
    associativities: tuple[int, ...] = ()
    base_capacity: int = 8 << 20
    base_block_size: int = 64
    base_associativity: int = 8
    xy_capacities: tuple[int, ...] = ()
    set_size: int = 2048
    big_block_size: int = 512
    sample_rate: float = 1.0
    seed: int = 1
    warmup_fraction: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not (self.capacities or self.block_sizes or self.associativities
                or self.xy_capacities):
            raise ValueError("spec requests no curves")


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """One estimated point: integer counts plus derived rate and error.

    ``hits``/``accesses`` are kept as exact integers so downstream
    consumers (the Figure 1 rewire) can reproduce ``misses/total``
    arithmetic bit-for-bit; ``stderr`` is the binomial sampling error
    (0.0 at sample rate 1.0 — the estimate is then exact).
    """

    param: int | str
    hits: int
    accesses: int
    hit_rate: float
    stderr: float

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return (self.accesses - self.hits) / self.accesses


@dataclass(frozen=True, slots=True)
class MRCResult:
    """Every curve of one ghost pass, plus sampling bookkeeping."""

    capacity: tuple[CurvePoint, ...] = ()
    block_size: tuple[CurvePoint, ...] = ()
    associativity: tuple[CurvePoint, ...] = ()
    xy: tuple[CurvePoint, ...] = ()
    best_xy: dict = field(default_factory=dict)
    total_records: int = 0
    sampled_records: int = 0
    sample_rate: float = 1.0
    seed: int = 1
    ghosts: int = 0

    def curves(self) -> dict[str, tuple[CurvePoint, ...]]:
        return {
            "capacity": self.capacity,
            "block_size": self.block_size,
            "associativity": self.associativity,
            "xy": self.xy,
        }


def sample_addresses(addresses, rate: float, seed: int) -> list[int]:
    """Deterministic 4 KB-frame subset of an address stream.

    Keeps an address iff ``hash(frame, seed)``'s top 24 bits fall under
    ``rate·2^24`` — a pure function of (address, seed), identical on the
    numpy and scalar paths (the scalar fallback reproduces uint64
    wraparound with explicit masking).
    """
    if rate >= 1.0:
        return addresses.tolist() if hasattr(addresses, "tolist") else list(addresses)
    threshold = int(rate * (1 << 24))
    salt = (seed * _SEED_MIX) & _MASK64
    if isinstance(addresses, np.ndarray):
        a = addresses.astype(np.uint64, copy=False)
        h = (a >> np.uint64(_FRAME_BITS)) ^ np.uint64(salt)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_A)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_B)
        h = h ^ (h >> np.uint64(31))
        keep = ((h >> np.uint64(40)) & np.uint64(0xFFFFFF)) < threshold
        return a[keep].tolist()
    kept = []
    append = kept.append
    for address in addresses:
        h = (int(address) >> _FRAME_BITS) ^ salt
        h = ((h ^ (h >> 30)) * _MIX_A) & _MASK64
        h = ((h ^ (h >> 27)) * _MIX_B) & _MASK64
        h = h ^ (h >> 31)
        if ((h >> 40) & 0xFFFFFF) < threshold:
            append(int(address))
    return kept


def _point(param, count: GhostCount, *, sampled: bool) -> CurvePoint:
    n = count.accesses
    p = count.hit_rate
    stderr = math.sqrt(p * (1.0 - p) / n) if (sampled and n) else 0.0
    return CurvePoint(
        param=param, hits=count.hits, accesses=n, hit_rate=p, stderr=stderr
    )


def record_pass_metrics(total: int, sampled: int, walks: int) -> None:
    """Count one ghost pass: records in, records kept, distinct walks run."""
    from repro.obs import get_metrics

    metrics = get_metrics()
    metrics.add("mrc.passes")
    metrics.add("mrc.records", total)
    metrics.add("mrc.sampled_records", sampled)
    metrics.add("mrc.ghosts", walks)


def mrc_pass(addresses, spec: MRCSpec) -> MRCResult:
    """Drive one address stream through the whole ghost family.

    ``addresses`` is any integer sequence — canonically the first
    column of ``trace_cache.materialized_columns()``. Returns the four
    curves of :class:`MRCResult`; cost is one shared
    :func:`~repro.mrc.ghost.ghost_pass` over the sampled records.
    """
    spec.validate()
    total = len(addresses)
    stream = sample_addresses(addresses, spec.sample_rate, spec.seed)
    n = len(stream)
    warmup = int(n * spec.warmup_fraction) if spec.warmup_fraction else 0

    requests: list[tuple[str, int, object]] = []
    for capacity in spec.capacities:
        ghost = LRUGhost(capacity, spec.base_associativity, spec.base_block_size)
        requests.append(("capacity", capacity, ghost))
    for block_size in spec.block_sizes:
        ghost = LRUGhost(spec.base_capacity, spec.base_associativity, block_size)
        requests.append(("block_size", block_size, ghost))
    for assoc in spec.associativities:
        ghost = LRUGhost(spec.base_capacity, assoc, spec.base_block_size)
        requests.append(("associativity", assoc, ghost))
    for capacity in spec.xy_capacities:
        ghost = AdaptiveGhost(
            capacity, set_size=spec.set_size, big_block_size=spec.big_block_size
        )
        requests.append(("xy", capacity, ghost))

    result = ghost_pass(
        stream,
        [ghost for _, _, ghost in requests],
        warmup=warmup,
        sample_rate=spec.sample_rate,
    )
    sampled = spec.sample_rate < 1.0
    curves: dict[str, list[CurvePoint]] = {
        "capacity": [], "block_size": [], "associativity": [], "xy": []
    }
    best_xy: dict[int, tuple[int, int]] = {}
    for (axis, param, ghost), count in zip(requests, result.counts):
        curves[axis].append(_point(param, count, sampled=sampled))
        if isinstance(ghost, AdaptiveGhost):
            best_xy[param] = count.best_state
    record_pass_metrics(total, n, result.walks)

    return MRCResult(
        capacity=tuple(curves["capacity"]),
        block_size=tuple(curves["block_size"]),
        associativity=tuple(curves["associativity"]),
        xy=tuple(curves["xy"]),
        best_xy=best_xy,
        total_records=total,
        sampled_records=n,
        sample_rate=spec.sample_rate,
        seed=spec.seed,
        ghosts=result.walks,
    )
