"""ATCache (Huang & Nagarajan, PACT'14) — tags-in-DRAM + SRAM tag cache.

The DRAM organization mirrors Loh-Hill (tags co-located with 64 B data in
29-way set-rows); a small SRAM *tag cache* holds the full tag arrays of
recently accessed sets so that, on a tag-cache hit, only the data access
goes to DRAM. On a tag-cache miss the DRAM tag read happens first and the
data access follows serially — plus the tags of ``prefetch_granularity``
(PG = 8, the configuration this paper used) neighbouring sets are
installed to exploit spatial locality across sets.

This paper's critique (Section II-B, V-C1): with 64 B blocks the set
population is huge, so the tag cache's reach is limited and its hit rate
moderate — which is what bounds ATCache's average latency.
"""

from __future__ import annotations

from repro.common.config import DRAMCacheGeometry
from repro.common.stats import RateStat
from repro.dram.controller import MemoryController
from repro.dramcache.base import DRAMCacheBase
from repro.dramcache.lohhill import _Set, _TAG_BURSTS, _TAG_COMPARE_CYCLES
from repro.sram.cache import SetAssociativeCache

__all__ = ["ATCache"]

_TAG_CACHE_LATENCY = 2  # small SRAM structure


class ATCache(DRAMCacheBase):
    """Loh-Hill DRAM organization fronted by an SRAM tag cache."""

    name = "atcache"

    def __init__(
        self,
        geometry: DRAMCacheGeometry,
        offchip: MemoryController,
        *,
        tag_cache_sets: int | None = None,
        tag_cache_assoc: int = 16,
        prefetch_granularity: int = 8,
        tag_cache_coverage: float = 0.01,
    ) -> None:
        super().__init__(geometry, offchip)
        self.num_sets = geometry.capacity // geometry.geometry.page_size
        self._sets: dict[int, _Set] = {}
        self._channels = geometry.geometry.channels
        self._banks = geometry.geometry.banks_per_channel
        self._tick = 0
        self.pg = prefetch_granularity
        if tag_cache_sets is None:
            # Size the tag cache to ~1% of the DRAM cache's sets. This
            # paper's characterization (Fig. 3, Sec. V-C1) is that the
            # tag cache reaches only a moderate hit rate because 64 B
            # blocks make the set population huge; the coverage ratio is
            # held across capacity-scaled studies.
            groups = max(
                tag_cache_assoc, int(self.num_sets * tag_cache_coverage) // self.pg
            )
            # Rounded down to a power of two, as the set count must be.
            tag_cache_sets = 1 << ((groups // tag_cache_assoc).bit_length() - 1)
        # The tag cache tracks *which sets'* tags are SRAM-resident; one
        # "block" per PG-aligned group of sets.
        self.tag_cache = SetAssociativeCache(
            size=tag_cache_sets * tag_cache_assoc * 64,
            associativity=tag_cache_assoc,
            block_size=64,
            name="atcache-tags",
        )
        self.tag_cache_stat = RateStat()

    # -- shared Loh-Hill style helpers ---------------------------------
    def _set_of(self, address: int) -> tuple[int, int]:
        block = address >> 6
        return block % self.num_sets, block

    def _location(self, set_index: int) -> tuple[int, int, int]:
        channel = set_index % self._channels
        bank = (set_index // self._channels) % self._banks
        row = set_index // (self._channels * self._banks)
        return channel, bank, row

    def _get_set(self, set_index: int) -> _Set:
        entry = self._sets.get(set_index)
        if entry is None:
            entry = _Set()
            self._sets[set_index] = entry
        return entry

    def _group_key(self, set_index: int) -> int:
        """Tag-cache lookup key: PG-aligned set group, 64 B-granular."""
        return (set_index // self.pg) * 64

    def resident(self, address: int) -> bool:
        """State-only residency probe (prefetch bypass support)."""
        set_index, block = self._set_of(address)
        entry = self._sets.get(set_index)
        return entry is not None and block in entry.blocks

    # -------------------------------------------------------------------
    def _access_fast(self, address: int, now: int, is_write: bool) -> int:
        self._tick += 1
        block = address >> 6
        set_index = block % self.num_sets
        entry = self._get_set(set_index)
        channel, bank, row = self._location(set_index)

        tc_hit = self.tag_cache.access(self._group_key(set_index)).hit
        tc_stat = self.tag_cache_stat
        if tc_hit:
            tc_stat.hits += 1
            tags_known = now + _TAG_CACHE_LATENCY
            open_row_for_data = False
        else:
            tc_stat.misses += 1
            # Serial DRAM tag read (row stays open for the data column).
            tag_end = self.dram.access_direct_fast(
                channel, bank, row, now + _TAG_CACHE_LATENCY, _TAG_BURSTS
            )
            tags_known = tag_end + _TAG_COMPARE_CYCLES
            open_row_for_data = True

        blocks = entry.blocks
        if block in blocks:
            way = blocks.index(block)
            self._hit = True
            entry.last_use[way] = self._tick
            if is_write:
                entry.dirty[way] = True
                return tags_known
            if open_row_for_data:
                return self.dram.column_direct_fast(channel, bank, tags_known, 1)
            return self.dram.access_direct_fast(channel, bank, row, tags_known, 1)

        self._hit = False
        fetch_end = self._fetch_offchip(address, tags_known, bursts=1)
        victim_way = entry.victim_way()
        victim = blocks[victim_way]
        if victim is not None and entry.dirty[victim_way]:
            self._writeback_offchip(victim << 6, fetch_end, bursts=1)
        blocks[victim_way] = block
        entry.dirty[victim_way] = is_write
        entry.last_use[victim_way] = self._tick
        self._post_call(
            fetch_end, self.dram.access_direct_fast, channel, bank, row, fetch_end, 1
        )
        return fetch_end

    def reset_stats(self) -> None:
        super().reset_stats()
        self.tag_cache_stat.reset()
        self.tag_cache.reset_stats()

    @property
    def tag_cache_hit_rate(self) -> float:
        return self.tag_cache_stat.rate

    def stats_snapshot(self) -> dict[str, float]:
        snap = super().stats_snapshot()
        snap["tag_cache_hit_rate"] = self.tag_cache_hit_rate
        return snap
