"""Footprint Cache (Jevdjic, Volos & Falsafi, ISCA'13).

Organizes the DRAM cache in large (2 KB) pages with **tags in SRAM**, but
fetches only the 64-byte blocks of a page that the *footprint predictor*
expects to be used, and bypasses pages predicted to be touched exactly
once. On a page hit to a block that was not fetched (a *footprint miss*)
the block is fetched on demand.

This paper's two critiques, both of which this model reproduces:

* the large SRAM tag store costs several cycles on every access
  (serialized tag-then-data, Figure 3), and
* a page *commits* a full 2 KB frame even when only a few blocks are
  predicted — utilization levels between 2 and 7 sub-blocks cause
  internal fragmentation and extra misses from the virtually smaller
  cache (Section V-C1).

Substitution note: the original predictor is indexed by (PC, page
offset); our traces carry no PCs, so the footprint history table is
indexed by (super-region hash, first-touch offset) where a super-region
is a 1 MB span of pages. Pages of the same data structure (contiguous
spans in the synthetic workloads, as in real arrays/heaps) share
footprint history exactly the way pages touched by the same load
instruction do under PC indexing — in particular, *cold* pages of a
structure inherit the footprints observed on its earlier pages.
"""

from __future__ import annotations

from repro.common.config import DRAMCacheGeometry
from repro.common.stats import RateStat
from repro.common.tables import sram_latency_cycles
from repro.dram.controller import MemoryController
from repro.dramcache.base import DRAMCacheBase

__all__ = ["FootprintPredictor", "FootprintCache"]

_PAGE_SIZE = 2048
_BLOCKS_PER_PAGE = _PAGE_SIZE // 64


class FootprintPredictor:
    """Footprint history table: page-class -> predicted block bit-vector."""

    __slots__ = ("_table", "_mask", "lookups", "history_hits")

    def __init__(self, entries: int = 16384) -> None:
        self._table: dict[int, int] = {}
        self._mask = entries - 1
        self.lookups = 0
        self.history_hits = 0

    def _index(self, page_number: int) -> int:
        super_region = page_number >> 9  # 512 pages = 1 MB span
        return ((super_region * 2_654_435_761) >> 15) & self._mask

    @staticmethod
    def _rotate(footprint: int, shift: int) -> int:
        """Circular left rotation of the 32-bit footprint vector."""
        shift %= _BLOCKS_PER_PAGE
        mask = (1 << _BLOCKS_PER_PAGE) - 1
        return (
            (footprint << shift) | (footprint >> (_BLOCKS_PER_PAGE - shift))
        ) & mask

    def predict(self, page_number: int, first_offset: int) -> int:
        """Predicted footprint bit-vector; full page when no history.

        Footprints are stored normalized to their first-touch offset and
        rotated back on prediction, as in the original design — the shape
        of a structure's footprint generalizes across pages even when the
        entry offset differs.
        """
        self.lookups += 1
        footprint = self._table.get(self._index(page_number))
        if footprint is None:
            return (1 << _BLOCKS_PER_PAGE) - 1  # cold default: whole page
        self.history_hits += 1
        return self._rotate(footprint, first_offset) | (1 << first_offset)

    def record(self, page_number: int, first_offset: int, footprint: int) -> None:
        normalized = self._rotate(footprint, -first_offset)
        self._table[self._index(page_number)] = normalized


class _Page:
    __slots__ = ("page", "present", "used", "dirty", "first_offset", "last_use")

    def __init__(self, page: int, first_offset: int) -> None:
        self.page = page
        self.present = 0  # bit-vector of fetched 64B blocks
        self.used = 0  # bit-vector of CPU-referenced blocks
        self.dirty = 0
        self.first_offset = first_offset
        self.last_use = 0


class FootprintCache(DRAMCacheBase):
    """Page-granular tags-in-SRAM cache with footprint prediction."""

    name = "footprint"

    def __init__(
        self,
        geometry: DRAMCacheGeometry,
        offchip: MemoryController,
        *,
        associativity: int = 8,
        enable_bypass: bool = True,
    ) -> None:
        super().__init__(geometry, offchip)
        self.associativity = associativity
        self.num_sets = geometry.capacity // (_PAGE_SIZE * associativity)
        if self.num_sets < 1:
            raise ValueError("cache too small for page-granular organization")
        self._sets: dict[int, list[_Page]] = {}
        self.predictor = FootprintPredictor()
        self.enable_bypass = enable_bypass
        self._channels = geometry.geometry.channels
        self._banks = geometry.geometry.banks_per_channel
        self._tick = 0
        # SRAM tag store: ~12 B/page entry (tag + footprint/valid/dirty
        # vectors). The paper quotes 6-9 cycles for the 1-4 MB stores a
        # full-size Footprint Cache needs; that cost is the scheme's
        # intrinsic disadvantage (Section III-C2), so capacity-scaled
        # runs keep the full-scale floor rather than letting a shrunken
        # tag store become unrealistically fast.
        pages = geometry.capacity // _PAGE_SIZE
        self.tag_latency = max(
            sram_latency_cycles(1 << 20), sram_latency_cycles(pages * 12)
        )
        self.footprint_misses = RateStat()  # hits in page, missing block
        self.bypasses = 0

    # ------------------------------------------------------------------
    def _split(self, address: int) -> tuple[int, int, int]:
        page = address // _PAGE_SIZE
        return page % self.num_sets, page, (address % _PAGE_SIZE) // 64

    def _location(self, set_index: int, way: int) -> tuple[int, int, int]:
        frame = set_index * self.associativity + way
        channel = frame % self._channels
        bank = (frame // self._channels) % self._banks
        row = frame // (self._channels * self._banks)
        return channel, bank, row

    def _fetch_blocks(self, page: int, footprint: int, now: int) -> int:
        """Fetch the footprint's blocks from memory; returns data-end."""
        bursts = footprint.bit_count()
        return self._fetch_offchip(page * _PAGE_SIZE, now, bursts=bursts)

    def _evict(self, set_index: int, way: int, frame: _Page, now: int) -> None:
        """Writeback dirty blocks, train the predictor, account waste."""
        fetched = frame.present.bit_count()
        used = (frame.present & frame.used).bit_count()
        self._account_waste(fetched - used)
        dirty = frame.dirty.bit_count()
        if dirty:
            self._writeback_offchip(frame.page * _PAGE_SIZE, now, bursts=dirty)
        self.predictor.record(frame.page, frame.first_offset, frame.used)

    def resident(self, address: int) -> bool:
        """True when the page is resident *and* the block was fetched."""
        set_index, page, offset = self._split(address)
        for frame in self._sets.get(set_index, []):
            if frame.page == page:
                return bool(frame.present & (1 << offset))
        return False

    # ------------------------------------------------------------------
    def _access_fast(self, address: int, now: int, is_write: bool) -> int:
        self._tick += 1
        set_index, page, offset = self._split(address)
        ways = self._sets.setdefault(set_index, [])
        tags_known = now + self.tag_latency

        frame = None
        way_idx = -1
        for idx, candidate in enumerate(ways):
            if candidate.page == page:
                frame, way_idx = candidate, idx
                break

        bit = 1 << offset
        if frame is not None:
            frame.last_use = self._tick
            frame.used |= bit
            if is_write:
                frame.dirty |= bit
            if frame.present & bit:
                self.footprint_misses.misses += 1
                self._hit = True
                if is_write:
                    return tags_known
                channel, bank, row = self._location(set_index, way_idx)
                return self.dram.access_direct_fast(channel, bank, row, tags_known, 1)
            # Footprint miss: page resident, block not fetched.
            self.footprint_misses.hits += 1
            self._hit = False
            fetch_end = self._fetch_offchip(address, tags_known, bursts=1)
            frame.present |= bit
            channel, bank, row = self._location(set_index, way_idx)
            self._post_call(
                fetch_end,
                self.dram.access_direct_fast,
                channel, bank, row, fetch_end, 1,
            )
            return fetch_end

        # Page miss: predict footprint, optionally bypass singletons.
        self._hit = False
        footprint = self.predictor.predict(page, offset) | bit
        if self.enable_bypass and footprint.bit_count() == 1:
            self.bypasses += 1
            return self._fetch_offchip(address, tags_known, bursts=1)

        fetch_end = self._fetch_blocks(page, footprint, tags_known)
        new_frame = _Page(page, offset)
        new_frame.present = footprint
        new_frame.used = bit
        new_frame.dirty = bit if is_write else 0
        new_frame.last_use = self._tick

        if len(ways) < self.associativity:
            ways.append(new_frame)
            way_idx = len(ways) - 1
        else:
            last_use = []
            for w in ways:
                last_use.append(w.last_use)
            way_idx = last_use.index(min(last_use))
            self._evict(set_index, way_idx, ways[way_idx], fetch_end)
            ways[way_idx] = new_frame

        channel, bank, row = self._location(set_index, way_idx)
        fill_bursts = max(1, footprint.bit_count())
        self._post_call(
            fetch_end,
            self.dram.access_direct_fast,
            channel, bank, row, fetch_end, fill_bursts,
        )
        return fetch_end

    def reset_stats(self) -> None:
        super().reset_stats()
        self.footprint_misses.reset()
        self.bypasses = 0

    def stats_snapshot(self) -> dict[str, float]:
        snap = super().stats_snapshot()
        snap["footprint_miss_count"] = self.footprint_misses.hits
        snap["bypasses"] = self.bypasses
        snap["tag_latency"] = self.tag_latency
        return snap
