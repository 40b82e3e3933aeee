"""Generic set-associative SRAM cache.

The building block for SRAM side structures (ATCache's tag cache) and
for the LRU reference walks of Figure 5 and the MRC tests.

The model is functional-plus-recency: it tracks residency and LRU state
and counts hits, misses and evictions. All timing is attributed by the
enclosing component (hit latencies come from the config / CACTI tables).
"""

from __future__ import annotations

from repro.common.addressing import is_power_of_two, log2_int
from repro.common.stats import Histogram, RateStat

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """Allocate-on-miss set-associative cache with LRU replacement.

    Each set is a list of its resident tags in recency order, least
    recently used first, so a hit moves its tag to the end and a miss on
    a full set evicts the head.
    """

    __slots__ = (
        "size",
        "associativity",
        "block_size",
        "num_sets",
        "_offset_bits",
        "_index_bits",
        "_index_mask",
        "_sets",
        "accesses",
        "evictions",
        "mru_hits",
    )

    def __init__(
        self,
        size: int,
        associativity: int,
        block_size: int = 64,
        *,
        track_mru: bool = False,
    ) -> None:
        if not is_power_of_two(size) or not is_power_of_two(block_size):
            raise ValueError("size and block_size must be powers of two")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        num_sets = size // (block_size * associativity)
        if num_sets < 1 or not is_power_of_two(num_sets):
            raise ValueError("size/(block*assoc) must be a power-of-two set count")
        self.size = size
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = num_sets
        self._offset_bits = log2_int(block_size)
        self._index_bits = log2_int(num_sets)
        self._index_mask = num_sets - 1
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self.accesses = RateStat()
        self.evictions = 0
        # Figure 5 instrumentation: distribution of hits over MRU stack
        # positions (0 = most recently used way of the set).
        self.mru_hits: Histogram | None = Histogram() if track_mru else None

    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        """Residency probe without recency side effects."""
        block = address >> self._offset_bits
        return block >> self._index_bits in self._sets[block & self._index_mask]

    def access(self, address: int) -> bool:
        """Access one block, allocating it on a miss; True on a hit."""
        block = address >> self._offset_bits
        tag = block >> self._index_bits
        ways = self._sets[block & self._index_mask]
        if tag in ways:
            if self.mru_hits is not None:
                self.mru_hits.add(len(ways) - 1 - ways.index(tag))
            ways.remove(tag)
            ways.append(tag)
            self.accesses.hits += 1
            return True

        self.accesses.misses += 1
        ways.append(tag)
        if len(ways) > self.associativity:
            del ways[0]
            self.evictions += 1
        return False

    def resident_blocks(self) -> int:
        return sum(len(ways) for ways in self._sets)

    @property
    def hit_rate(self) -> float:
        return self.accesses.rate

    def reset_stats(self) -> None:
        self.accesses.reset()
        self.evictions = 0
