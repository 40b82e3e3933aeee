"""Generic set-associative SRAM cache.

Serves as the L1 data caches and the shared last-level SRAM cache
(*LLSC* in the paper's terminology) that sit in front of the DRAM cache,
and as the building block for SRAM side structures (ATCache's tag cache,
Footprint Cache's tag array).

The model is functional-plus-recency: it tracks residency, dirtiness and
LRU state, and reports evictions so the caller can issue writebacks. All
timing is attributed by the enclosing component (hit latencies come from
the config / CACTI tables).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addressing import is_power_of_two, log2_int
from repro.common.stats import Histogram, RateStat

__all__ = ["AccessResult", "SetAssociativeCache"]


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one cache access.

    ``writeback_address`` is the block address of a dirty victim that must
    be written to the next level (None when no dirty eviction happened).
    ``victim_address`` reports any eviction, dirty or clean.
    """

    hit: bool
    writeback_address: int | None = None
    victim_address: int | None = None


_HIT = AccessResult(hit=True)
_MISS = AccessResult(hit=False)


class SetAssociativeCache:
    """Write-back, write-allocate set-associative cache with LRU replacement.

    Each set is a list of its resident tags in recency order, least
    recently used first, so a hit moves its tag to the end and a miss on
    a full set evicts the head. Dirty lines are kept as one set of block
    numbers (address >> offset bits) for the whole cache.
    """

    __slots__ = (
        "name",
        "size",
        "associativity",
        "block_size",
        "num_sets",
        "_offset_bits",
        "_index_bits",
        "_index_mask",
        "_sets",
        "_dirty",
        "accesses",
        "evictions",
        "writebacks",
        "mru_hits",
    )

    def __init__(
        self,
        size: int,
        associativity: int,
        block_size: int = 64,
        *,
        name: str = "cache",
        track_mru: bool = False,
    ) -> None:
        if not is_power_of_two(size) or not is_power_of_two(block_size):
            raise ValueError("size and block_size must be powers of two")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        num_sets = size // (block_size * associativity)
        if num_sets < 1 or not is_power_of_two(num_sets):
            raise ValueError("size/(block*assoc) must be a power-of-two set count")
        self.name = name
        self.size = size
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = num_sets
        self._offset_bits = log2_int(block_size)
        self._index_bits = log2_int(num_sets)
        self._index_mask = num_sets - 1
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self._dirty: set[int] = set()
        self.accesses = RateStat()
        self.evictions = 0
        self.writebacks = 0
        # Figure 5 instrumentation: distribution of hits over MRU stack
        # positions (0 = most recently used way of the set).
        self.mru_hits: Histogram | None = Histogram() if track_mru else None

    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        """Residency probe without recency side effects."""
        block = address >> self._offset_bits
        return block >> self._index_bits in self._sets[block & self._index_mask]

    def access(self, address: int, *, is_write: bool = False) -> AccessResult:
        """Access one block; allocates on miss; returns eviction info."""
        block = address >> self._offset_bits
        index = block & self._index_mask
        tag = block >> self._index_bits
        ways = self._sets[index]
        if is_write:
            # Write-allocate: a write dirties its block, hit or fill.
            self._dirty.add(block)
        if tag in ways:
            if self.mru_hits is not None:
                self.mru_hits.add(len(ways) - 1 - ways.index(tag))
            ways.remove(tag)
            ways.append(tag)
            self.accesses.hits += 1
            return _HIT

        self.accesses.misses += 1
        ways.append(tag)
        if len(ways) <= self.associativity:
            return _MISS
        victim_block = (ways.pop(0) << self._index_bits) | index
        victim = victim_block << self._offset_bits
        self.evictions += 1
        if victim_block in self._dirty:
            self._dirty.remove(victim_block)
            self.writebacks += 1
            return AccessResult(hit=False, writeback_address=victim, victim_address=victim)
        return AccessResult(hit=False, victim_address=victim)

    def invalidate(self, address: int) -> bool:
        """Drop a block if present (no writeback); True if it was resident."""
        block = address >> self._offset_bits
        ways = self._sets[block & self._index_mask]
        tag = block >> self._index_bits
        if tag not in ways:
            return False
        ways.remove(tag)
        self._dirty.discard(block)
        return True

    def resident_blocks(self) -> int:
        return sum(len(ways) for ways in self._sets)

    @property
    def hit_rate(self) -> float:
        return self.accesses.rate

    def reset_stats(self) -> None:
        self.accesses.reset()
        self.evictions = 0
        self.writebacks = 0
