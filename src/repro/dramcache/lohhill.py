"""Loh-Hill DRAM cache (MICRO'11) — tags-in-DRAM, 29-way sets.

One 2 KB DRAM row is one set: 3 blocks of tag metadata followed by 29
64-byte data ways. *Compound access scheduling* keeps the row open across
the tag read and the subsequent data read, so a hit costs
ACT + CAS(tags) + compare + CAS(data) on the same row — multiple DRAM
accesses, which is exactly the high-hit-latency behaviour the paper's
Figure 3 and Table I attribute to this scheme.
"""

from __future__ import annotations

from repro.common.config import DRAMCacheGeometry
from repro.dram.device import DRAMDevice
from repro.dramcache.base import DRAMCacheBase

__all__ = ["LohHillCache"]

_WAYS = 29
_TAG_BURSTS = 2  # 29 tags x ~4 B = 116 B -> two 64 B bursts
_TAG_COMPARE_CYCLES = 1


class _Set:
    __slots__ = ("blocks", "dirty", "last_use")

    def __init__(self) -> None:
        self.blocks: list[int | None] = [None] * _WAYS
        self.dirty = [False] * _WAYS
        self.last_use = [0] * _WAYS

    def victim_way(self) -> int:
        """The first free way, else the least recently used one."""
        blocks = self.blocks
        if None in blocks:
            return blocks.index(None)
        last_use = self.last_use
        return last_use.index(min(last_use))


class LohHillCache(DRAMCacheBase):
    """29-way set-per-row tags-in-DRAM cache with compound scheduling."""

    name = "lohhill"

    def __init__(self, geometry: DRAMCacheGeometry, offchip: DRAMDevice) -> None:
        super().__init__(geometry, offchip)
        self.num_sets = geometry.capacity // geometry.geometry.page_size
        self._sets: dict[int, _Set] = {}
        self._channels = geometry.geometry.channels
        self._banks = geometry.geometry.banks_per_channel
        self._tick = 0

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

    def resident(self, address: int) -> bool:
        """State-only residency probe (prefetch bypass support)."""
        set_index, block = self._set_of(address)
        entry = self._sets.get(set_index)
        return entry is not None and block in entry.blocks

    def _access_fast(self, address: int, now: int, is_write: bool) -> int:
        self._tick += 1
        block = address >> 6
        set_index = block % self.num_sets
        entry = self._get_set(set_index)
        channel, bank, row = self._location(set_index)

        # Compound access: tag read opens the row and keeps it open.
        tag_end = self.dram.access_direct_fast(channel, bank, row, now, _TAG_BURSTS)
        tags_known = tag_end + _TAG_COMPARE_CYCLES

        blocks = entry.blocks
        if block in blocks:
            way = blocks.index(block)
            self._hit = True
            entry.last_use[way] = self._tick
            if is_write:
                entry.dirty[way] = True
                return tags_known
            return self.dram.column_direct_fast(channel, bank, tags_known, 1)

        # Miss: off-chip fetch after the tag check disproved residency.
        self._hit = False
        fetch_end = self._fetch_offchip(address, tags_known, bursts=1)
        victim_way = entry.victim_way()
        victim = blocks[victim_way]
        if victim is not None and entry.dirty[victim_way]:
            self._writeback_offchip(victim << 6, fetch_end, bursts=1)
        blocks[victim_way] = block
        entry.dirty[victim_way] = is_write
        entry.last_use[victim_way] = self._tick
        # Fill write into the row; posted at fill time.
        self._post_call(
            fetch_end, self.dram.access_direct_fast, channel, bank, row, fetch_end, 1
        )
        return fetch_end
