"""Tag-only ghost caches and the shared pass that walks them.

A ghost cache keeps *only* the tag/recency state of an organization —
no data, no timing, no bank model. One materialized trace can therefore
be driven through dozens of ghost configurations for less than the cost
of a single timing simulation (``docs/dse.md``).

Three request types cover the design space the paper sweeps:

* :class:`LRUGhost` — set-associative LRU at an arbitrary (capacity,
  associativity, block size). Its hit/miss sequence is **exactly** that
  of :class:`repro.sram.cache.SetAssociativeCache` with the LRU policy
  (pinned by tests/mrc/test_ghost.py), because both allocate on miss,
  fill empty ways first and evict the least-recently-used way. Figure 1
  runs on this model.
* :class:`BiModalGhost` — a fixed-(X, Y) bi-modal set (X big ways,
  Y small ways, the states of :func:`repro.bimodal.sets.allowed_states`)
  with a region-utilization predictor deciding miss-fill size, LRU
  within each way class. It *approximates* the timing model's
  random-not-recent replacement with LRU (the accuracy bound is
  measured and documented in ``docs/dse.md``).
* :class:`AdaptiveGhost` — the bi-modal adaptive estimate: every
  allowed (X, Y) state of one geometry, reporting the best.

:func:`ghost_pass` resolves any mix of them over one address stream.
Everything that depends only on the stream is computed once, not once
per ghost: the 64 B line ids once per stream, the (set index, tag)
columns once per (set count, block size) geometry — dropped when that
geometry's walks finish, so the extra memory stays O(records) — and the
predictor's region-density bit once per big-block size. Identical walks
run once: a bi-modal state with no small ways *is* the big-block LRU
ghost of the same geometry. Each distinct walk runs one of two kernels,
:func:`_lru_misses` or :func:`_bimodal_misses`, over the precomputed
columns; the warm-up boundary splits it into two loop segments instead
of a counter compared on every record.

Determinism: ghost state is a pure function of the address stream —
no wall clock, no ambient entropy (the ``determinism`` simlint rule
covers this package; sampling randomness lives in
:mod:`repro.mrc.engine` and derives from the request seed).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.bimodal.sets import allowed_states
from repro.common.addressing import is_power_of_two, log2_int

__all__ = [
    "AdaptiveGhost",
    "BiModalGhost",
    "GhostCount",
    "GhostPassResult",
    "LRUGhost",
    "ghost_pass",
]

_LINE_BITS = 6  # 64 B lines: the small-block grain and the predictor's unit

#: Region-utilization predictor geometry shared by the bi-modal ghosts:
#: a bounded recency-ordered table of big-block regions -> 64 B used
#: masks. Small and fixed — the SRAM tracker it stands in for is too.
_TRACKER_ENTRIES = 4096

# A walk is keyed by (block size, set count, ways, small ways, density
# threshold); LRU walks carry zero small ways and threshold. Sorting the
# keys makes each geometry's walks adjacent.
_Walk = tuple[int, int, int, int, int]


def _pow2_scale(value: int, rate: float, minimum: int) -> int:
    """``value·rate`` rounded to the nearest power of two, floored.

    Sampled passes shrink ghost capacity in proportion to the kept
    fraction of the address space (the SHARDS capacity correction);
    exact for rates that are powers of 1/2, nearest-pow2 otherwise.
    """
    target = max(minimum, value * rate)
    exponent = round(math.log2(target))
    return max(minimum, 1 << exponent)


@dataclass(frozen=True, slots=True)
class LRUGhost:
    """Tag-only set-associative LRU cache.

    Non-power-of-two associativities (Loh-Hill's 29 ways) round the set
    count *down* to a power of two, slightly over-provisioning each set;
    ``approximate`` records that the geometry was adjusted.
    """

    capacity: int
    associativity: int
    block_size: int = 64

    def __post_init__(self) -> None:
        if not is_power_of_two(self.capacity) or not is_power_of_two(self.block_size):
            raise ValueError("capacity and block_size must be powers of two")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.capacity < self.set_size:
            raise ValueError(
                f"capacity {self.capacity} too small for {self.associativity} "
                f"ways of {self.block_size} B blocks"
            )

    @property
    def set_size(self) -> int:
        return self.block_size * self.associativity

    @property
    def approximate(self) -> bool:
        return not is_power_of_two(self.capacity // self.set_size)

    @property
    def num_sets(self) -> int:
        return 1 << ((self.capacity // self.set_size).bit_length() - 1)

    def walks(self) -> dict[tuple[int, int], _Walk]:
        return {(0, 0): (self.block_size, self.num_sets, self.associativity, 0, 0)}


@dataclass(frozen=True, slots=True)
class BiModalGhost:
    """Fixed-(X, Y) bi-modal set model: X big ways + Y small (64 B) ways.

    A hit is residency in either way class. A miss consults the
    region-utilization predictor: a region whose observed 64 B-use count
    has reached ``utilization_threshold`` fills a big block, otherwise a
    single small block (the paper's fill policy, Section III). With
    ``Y == 0`` every fill is big and the model *is* :class:`LRUGhost` at
    the big-block grain, so the pass runs it as that walk.

    Replacement within each class is LRU — an approximation of the
    timing model's random-not-recent choice; see the module docstring.
    """

    capacity: int
    big_ways: int
    small_ways: int
    set_size: int = 2048
    big_block_size: int = 512
    utilization_threshold: int = 5

    def __post_init__(self) -> None:
        if not is_power_of_two(self.capacity) or not is_power_of_two(self.set_size):
            raise ValueError("capacity and set_size must be powers of two")
        state = (self.big_ways, self.small_ways)
        if state not in allowed_states(self.set_size, self.big_block_size):
            raise ValueError(
                f"{state} is not an allowed state for {self.set_size} B "
                f"sets of {self.big_block_size} B blocks"
            )
        if self.capacity < self.set_size:
            raise ValueError("capacity/set_size must be a power-of-two set count")

    def walks(self) -> dict[tuple[int, int], _Walk]:
        num_sets = self.capacity // self.set_size
        if not self.small_ways:
            walk = (self.big_block_size, num_sets, self.big_ways, 0, 0)
        else:
            walk = (
                self.big_block_size,
                num_sets,
                self.big_ways,
                self.small_ways,
                self.utilization_threshold,
            )
        return {(self.big_ways, self.small_ways): walk}


@dataclass(frozen=True, slots=True)
class AdaptiveGhost:
    """Bi-modal *adaptive* estimate: the best fixed-(X, Y) state.

    The timing model re-partitions each set toward the best-performing
    (X, Y) state; its steady-state hit rate is therefore bracketed by
    the best fixed state. This request walks one :class:`BiModalGhost`
    per allowed state and reports the maximum (ties: the first state in
    :func:`~repro.bimodal.sets.allowed_states` order), which doubles as
    the sweep's (X, Y) occupancy estimate (``GhostCount.best_state``).
    """

    capacity: int
    set_size: int = 2048
    big_block_size: int = 512
    utilization_threshold: int = 5

    def states(self) -> tuple[BiModalGhost, ...]:
        return tuple(
            BiModalGhost(
                self.capacity,
                x,
                y,
                set_size=self.set_size,
                big_block_size=self.big_block_size,
                utilization_threshold=self.utilization_threshold,
            )
            for x, y in allowed_states(self.set_size, self.big_block_size)
        )

    def walks(self) -> dict[tuple[int, int], _Walk]:
        walks: dict[tuple[int, int], _Walk] = {}
        for state in self.states():
            walks.update(state.walks())
        return walks


Ghost = LRUGhost | BiModalGhost | AdaptiveGhost


@dataclass(frozen=True, slots=True)
class GhostCount:
    """One ghost's post-warm-up counters.

    ``best_state`` is the (X, Y) state the counts come from: the winner
    for an :class:`AdaptiveGhost`, the fixed state for a
    :class:`BiModalGhost` and ``(0, 0)`` for an :class:`LRUGhost`.
    """

    hits: int
    accesses: int
    best_state: tuple[int, int]

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        # (accesses - hits)/accesses, matching RateStat.miss_rate's
        # misses/total arithmetic bit-for-bit (same division).
        if not self.accesses:
            return 0.0
        return (self.accesses - self.hits) / self.accesses


@dataclass(frozen=True, slots=True)
class GhostPassResult:
    """Counts aligned with the requested ghosts, plus the walks run."""

    counts: tuple[GhostCount, ...]
    walks: int


def ghost_pass(
    stream: Sequence[int],
    ghosts: Sequence[Ghost],
    *,
    warmup: int = 0,
    sample_rate: float = 1.0,
) -> GhostPassResult:
    """Drive one address stream through every ghost in ``ghosts``.

    ``stream`` is the (sampled) address sequence. ``warmup`` > 0 resets
    the counters immediately before the ``warmup``-th record is issued
    (contents and recency are kept), mirroring the timing drive's
    warm-up; a warm-up past the end of the stream never resets them.
    ``sample_rate`` < 1 scales every ghost's capacity by the rate to the
    nearest power of two, floored at one set (the SHARDS correction), so
    a sampled stream estimates the full-trace hit rate.
    """
    if sample_rate < 1.0:
        ghosts = [
            replace(g, capacity=_pow2_scale(g.capacity, sample_rate, g.set_size))
            for g in ghosts
        ]
    per_ghost = [g.walks() for g in ghosts]
    walks = sorted({walk for states in per_ghost for walk in states.values()})
    # Leading records that train the ghosts without being counted.
    skip = warmup - 1 if 0 < warmup <= len(stream) else 0
    hits = _run_walks(stream, walks, skip)
    accesses = len(stream) - skip
    counts = []
    for states in per_ghost:
        best = max(states, key=lambda state: hits[states[state]])
        counts.append(GhostCount(hits[states[best]], accesses, best))
    return GhostPassResult(counts=tuple(counts), walks=len(walks))


def _run_walks(stream, walks: list[_Walk], skip: int) -> dict[_Walk, int]:
    """Hits after the first ``skip`` records of each walk (``walks`` sorted)."""
    addresses = np.asarray(stream, dtype=np.int64)
    lines: tuple[list, list] | None = None
    density: dict[int, tuple[list, list]] = {}
    geometry = None
    hits: dict[_Walk, int] = {}
    for walk in walks:
        block_size, num_sets, ways, small_ways, threshold = walk
        if geometry != (block_size, num_sets):
            if geometry is None or geometry[0] != block_size:
                density.clear()
            geometry = (block_size, num_sets)
            indexes = tags = None  # free the finished geometry's columns first
            indexes, tags = _geometry_columns(addresses, block_size, num_sets, skip)
        if small_ways:
            if lines is None:
                lines = _split(addresses >> _LINE_BITS, skip)
            if threshold not in density:
                density[threshold] = _region_density(lines, block_size, threshold)
            big = [{} for _ in range(num_sets)]
            small = [{} for _ in range(num_sets)]
            for k in (0, 1):  # warm-up segment, then the counted one
                misses = _bimodal_misses(
                    big,
                    small,
                    ways,
                    small_ways,
                    zip(indexes[k], tags[k], lines[k], density[threshold][k]),
                )
        else:
            sets = [{} for _ in range(num_sets)]
            for k in (0, 1):
                misses = _lru_misses(sets, ways, zip(indexes[k], tags[k]))
        hits[walk] = len(indexes[1]) - misses
    return hits


def _split(column: np.ndarray, skip: int) -> tuple[list, list]:
    """A column as (warm-up records, counted records) lists."""
    return column[:skip].tolist(), column[skip:].tolist()


def _geometry_columns(addresses: np.ndarray, block_size: int, num_sets: int, skip: int):
    """(set index, tag) columns of one geometry, each split at ``skip``."""
    blocks = addresses >> log2_int(block_size)
    return _split(blocks & (num_sets - 1), skip), _split(blocks >> log2_int(num_sets), skip)


def _region_density(
    lines: tuple[list, list], big_block_size: int, threshold: int
) -> tuple[list, list]:
    """Per record: has its big-block region's 64 B-use count reached ``threshold``?

    The predictor is a bounded recency-ordered table of
    ``_TRACKER_ENTRIES`` regions -> used-line mask, trained on every
    access before the fill decision. It never sees cache state, so it is
    a pure function of the stream and the block size: one column serves
    every bi-modal walk at that size.
    """
    to_region = log2_int(big_block_size) - _LINE_BITS
    sub_mask = (big_block_size >> _LINE_BITS) - 1
    tracker: dict[int, int] = {}
    dense: tuple[list, list] = ([], [])
    for segment, out in zip(lines, dense):  # split like ``lines``
        append = out.append
        for line in segment:
            region = line >> to_region
            mask = tracker.pop(region, 0) | (1 << (line & sub_mask))
            tracker[region] = mask
            if len(tracker) > _TRACKER_ENTRIES:
                del tracker[next(iter(tracker))]
            append(mask.bit_count() >= threshold)
    return dense


def _lru_misses(sets: list[dict], ways: int, records) -> int:
    """The LRU kernel: walk ``(set index, tag)`` records, return misses.

    Per-set state is one insertion-ordered dict mapping tag -> None:
    dict order *is* recency order (hits re-insert their tag), so a hit
    probe, an LRU eviction and a fill are all O(1).
    """
    misses = 0
    for index, tag in records:
        resident = sets[index]
        if tag in resident:
            del resident[tag]
            resident[tag] = None
        else:
            misses += 1
            if len(resident) >= ways:
                del resident[next(iter(resident))]
            resident[tag] = None
    return misses


def _bimodal_misses(
    big_sets: list[dict], small_sets: list[dict], big_ways: int, small_ways: int, records
) -> int:
    """The bi-modal kernel: walk ``(set index, tag, line, dense)`` records.

    A hit is residency of the big block (keyed by tag) or of the 64 B
    line (keyed by line id). A miss fills a big block when the region is
    dense, a small one otherwise, each class evicting its LRU way.
    Requires ``small_ways`` > 0 (Y = 0 runs as an LRU walk).
    """
    misses = 0
    for index, tag, line, dense in records:
        big = big_sets[index]
        if tag in big:
            del big[tag]
            big[tag] = None
            continue
        small = small_sets[index]
        if line in small:
            del small[line]
            small[line] = None
            continue
        misses += 1
        if dense:
            if len(big) >= big_ways:
                del big[next(iter(big))]
            big[tag] = None
        else:
            if len(small) >= small_ways:
                del small[next(iter(small))]
            small[line] = None
    return misses
