"""SRAM Way Locator (Section III-C).

A small 2-way set-associative table indexed by ``K`` bits drawn from the
tag and set-index bits of the incoming address. Each entry stores a valid
bit, a block-size bit, the *remaining* set+tag bits, the 3 leading offset
bits (so small blocks match exactly) and the way identification number.

Because the full address (set + tag + leading offset bits for small
blocks) is compared, the locator **never mispredicts**: a hit identifies
a resident block and its exact DRAM column, so no metadata access is
needed on reads. Entries are installed on locator misses that turn out to
be DRAM cache hits or fills, and are invalidated when their block is
evicted (keeping the no-misprediction invariant).
"""

from __future__ import annotations

from repro.common.stats import RateStat
from repro.common.tables import sram_latency_cycles, way_locator_storage_bytes

__all__ = ["WayLocatorEntry", "WayLocator"]


class WayLocatorEntry:
    """One locator entry (Figure 6)."""

    __slots__ = ("key", "is_big", "sub_offset", "way", "last_use")

    def __init__(self, key: int, is_big: bool, sub_offset: int, way: int, tick: int):
        self.key = key
        self.is_big = is_big
        self.sub_offset = sub_offset
        self.way = way
        self.last_use = tick


class WayLocator:
    """2-way set-associative way cache with exact-match lookups."""

    __slots__ = (
        "index_bits",
        "address_bits",
        "set_index_bits",
        "offset_bits",
        "max_ways",
        "_mask",
        "_table",
        "_tick",
        "lookups",
        "insertions",
        "invalidations",
        "storage_bytes",
        "latency_cycles",
    )

    def __init__(
        self,
        index_bits: int,
        *,
        address_bits: int = 40,
        set_index_bits: int = 16,
        offset_bits: int = 9,
        max_ways: int = 18,
    ) -> None:
        if index_bits < 1:
            raise ValueError("index_bits must be >= 1")
        self.index_bits = index_bits
        self.address_bits = address_bits
        self.set_index_bits = set_index_bits
        self.offset_bits = offset_bits
        self.max_ways = max_ways
        self._mask = (1 << index_bits) - 1
        self._table: list[list[WayLocatorEntry]] = [
            [] for _ in range(1 << index_bits)
        ]
        self._tick = 0
        self.lookups = RateStat()
        self.insertions = 0
        self.invalidations = 0
        # Geometry-derived constants, computed once (the access path reads
        # latency_cycles on every lookup).
        #: Total SRAM footprint (Table III formula).
        self.storage_bytes: float = way_locator_storage_bytes(
            address_bits, set_index_bits, offset_bits, index_bits, max_ways
        )
        #: Lookup latency from the CACTI staircase (Table III: 1-2 cy).
        self.latency_cycles: int = sram_latency_cycles(
            max(1, int(self.storage_bytes))
        )

    @property
    def num_entries(self) -> int:
        return 2 << self.index_bits

    # ------------------------------------------------------------------
    def _split(self, set_index: int, tag: int) -> tuple[int, int]:
        """(table index, stored key) from the set+tag bits."""
        combined = (tag << self.set_index_bits) | set_index
        return combined & self._mask, combined >> self.index_bits

    def lookup(self, set_index: int, tag: int, sub_offset: int) -> tuple[bool, int] | None:
        """Return (is_big, way) on a locator hit, else None.

        A big-block entry matches any sub-offset of its 512 B frame; a
        small-block entry additionally requires the 3 offset bits to
        match — this is what makes hits always correct.

        The reference definition of a probe: ``BiModalCache._access_fast``
        inlines it on its hit path, and the tests check the two agree.
        """
        tick = self._tick + 1
        self._tick = tick
        combined = (tag << self.set_index_bits) | set_index
        key = combined >> self.index_bits
        lookups = self.lookups
        for entry in self._table[combined & self._mask]:
            if entry.key != key:
                continue
            if entry.is_big or entry.sub_offset == sub_offset:
                entry.last_use = tick
                lookups.hits += 1
                return entry.is_big, entry.way
        lookups.misses += 1
        return None

    def insert(
        self, set_index: int, tag: int, sub_offset: int, *, is_big: bool, way: int
    ) -> None:
        """Install the way of a just-accessed block (LRU within the pair)."""
        self._tick += 1
        index, key = self._split(set_index, tag)
        bucket = self._table[index]
        for entry in bucket:
            if entry.key == key and entry.is_big == is_big and (
                is_big or entry.sub_offset == sub_offset
            ):
                entry.way = way
                entry.last_use = self._tick
                return
        entry = WayLocatorEntry(key, is_big, 0 if is_big else sub_offset, way, self._tick)
        if len(bucket) < 2:
            bucket.append(entry)
        else:
            lru = min(range(2), key=lambda i: bucket[i].last_use)
            bucket[lru] = entry
        self.insertions += 1

    def invalidate(self, set_index: int, tag: int, sub_offset: int, *, is_big: bool) -> bool:
        """Remove a block's entry on eviction; True if one was dropped."""
        index, key = self._split(set_index, tag)
        bucket = self._table[index]
        for i, entry in enumerate(bucket):
            if entry.key == key and entry.is_big == is_big and (
                is_big or entry.sub_offset == sub_offset
            ):
                del bucket[i]
                self.invalidations += 1
                return True
        return False

    @property
    def hit_rate(self) -> float:
        return self.lookups.rate

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._table)
