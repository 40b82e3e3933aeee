"""Reference set-associative LRU cache: one line object per way.

This is the straightforward model ``repro.sram.cache.SetAssociativeCache``
replaced: every way holds a tag, valid and dirty bits and a last-use
timestamp, a lookup walks the ways, a miss fills the first invalid way or
else the valid way with the oldest timestamp, and Figure 5's MRU rank of
a hit is the number of valid ways used more recently. It is kept as the
oracle the production cache is checked against, not for speed.
"""

from __future__ import annotations

from repro.common.addressing import log2_int
from repro.common.stats import Histogram, RateStat
from repro.sram.cache import AccessResult


class _Line:
    __slots__ = ("tag", "valid", "dirty", "last_use")

    def __init__(self) -> None:
        self.tag = 0
        self.valid = False
        self.dirty = False
        self.last_use = 0


class ReferenceCache:
    """Write-back, write-allocate LRU cache with per-way line objects."""

    def __init__(
        self, size: int, associativity: int, block_size: int = 64, *, track_mru=False
    ) -> None:
        self.associativity = associativity
        self.num_sets = size // (block_size * associativity)
        self._offset_bits = log2_int(block_size)
        self._index_bits = log2_int(self.num_sets)
        self._sets = [
            [_Line() for _ in range(associativity)] for _ in range(self.num_sets)
        ]
        self._tick = 0
        self.accesses = RateStat()
        self.evictions = 0
        self.writebacks = 0
        self.mru_hits = Histogram() if track_mru else None

    def _locate(self, address: int) -> tuple[int, int, int | None]:
        """Return (tag, set index, way or None)."""
        block = address >> self._offset_bits
        index = block & (self.num_sets - 1)
        tag = block >> self._index_bits
        for way, line in enumerate(self._sets[index]):
            if line.valid and line.tag == tag:
                return tag, index, way
        return tag, index, None

    def contains(self, address: int) -> bool:
        return self._locate(address)[2] is not None

    def access(self, address: int, *, is_write: bool = False) -> AccessResult:
        self._tick += 1
        tag, index, way = self._locate(address)
        ways = self._sets[index]
        if way is not None:
            line = ways[way]
            if self.mru_hits is not None:
                self.mru_hits.add(
                    sum(
                        1
                        for other in ways
                        if other.valid and other.last_use > line.last_use
                    )
                )
            line.last_use = self._tick
            if is_write:
                line.dirty = True
            self.accesses.record(True)
            return AccessResult(hit=True)

        self.accesses.record(False)
        free = [w for w, line in enumerate(ways) if not line.valid]
        if free:
            victim_way = free[0]
        else:
            victim_way = min(
                range(self.associativity), key=lambda w: ways[w].last_use
            )
        line = ways[victim_way]
        writeback = None
        victim = None
        if line.valid:
            victim = ((line.tag << self._index_bits) | index) << self._offset_bits
            self.evictions += 1
            if line.dirty:
                writeback = victim
                self.writebacks += 1
        line.tag = tag
        line.valid = True
        line.dirty = is_write
        line.last_use = self._tick
        return AccessResult(
            hit=False, writeback_address=writeback, victim_address=victim
        )

    def invalidate(self, address: int) -> bool:
        _, index, way = self._locate(address)
        if way is None:
            return False
        self._sets[index][way].valid = False
        return True

    def resident_blocks(self) -> int:
        return sum(1 for ways in self._sets for line in ways if line.valid)

    def reset_stats(self) -> None:
        self.accesses.reset()
        self.evictions = 0
        self.writebacks = 0
