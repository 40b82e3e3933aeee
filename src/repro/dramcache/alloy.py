"""AlloyCache — the paper's aggressive baseline (Qureshi & Loh, MICRO'12).

Direct-mapped, 64-byte blocks, with tag and data *alloyed* into one
72-byte TAD (tag-and-data) unit so a single DRAM access with a slightly
bigger burst returns both. A 2 KB row holds 28 TADs. A MAP (memory access
predictor) guesses hit/miss per access: predicted misses overlap the
off-chip fetch with the cache probe; predicted hits probe the cache alone.

Substitution note: MAP-I indexes by instruction address, which synthetic
traces do not carry; we index the same 2-bit-counter table by a hash of
the 4 KB region of the miss address, which captures the same
streaming-vs-resident correlation MAP-I exploits (misses cluster on the
same regions a load instruction streams through).
"""

from __future__ import annotations

from repro.common.config import DRAMCacheGeometry
from repro.dram.device import DRAMDevice
from repro.dramcache.base import DRAMCacheBase

__all__ = ["MAPPredictor", "AlloyCache"]

_TADS_PER_ROW = 28
_TAD_TRANSFER_CYCLES = 5  # 72 B on the 16 B/cycle stacked bus, rounded up
_TAG_COMPARE_CYCLES = 1


class MAPPredictor:
    """2-bit saturating hit/miss predictor table (1 KB => 4096 counters)."""

    __slots__ = ("_counters", "_mask", "correct", "wrong")

    def __init__(self, entries: int = 4096) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self._counters = [3] * entries  # optimistic: predict miss initially
        self._mask = entries - 1
        self.correct = 0
        self.wrong = 0

    def predict_and_update(self, address: int, was_miss: bool) -> bool:
        """Predict whether ``address`` misses, then train on the outcome.

        Returns the prediction made before training: True means the
        region's counter was at 2 or 3 (predict miss).
        """
        counters = self._counters
        index = (((address >> 12) * 2_654_435_761) >> 15) & self._mask
        count = counters[index]
        predicted_miss = count >= 2
        if predicted_miss == was_miss:
            self.correct += 1
        else:
            self.wrong += 1
        if was_miss:
            if count < 3:
                counters[index] = count + 1
        elif count > 0:
            counters[index] = count - 1
        return predicted_miss

    @property
    def accuracy(self) -> float:
        total = self.correct + self.wrong
        return self.correct / total if total else 0.0


class AlloyCache(DRAMCacheBase):
    """Direct-mapped tags-with-data DRAM cache."""

    name = "alloy"

    def __init__(self, geometry: DRAMCacheGeometry, offchip: DRAMDevice) -> None:
        super().__init__(geometry, offchip)
        rows = geometry.capacity // geometry.geometry.page_size
        self.num_slots = rows * _TADS_PER_ROW
        self._tags: dict[int, int] = {}  # slot -> block number
        self._dirty: set[int] = set()
        self.predictor = MAPPredictor()
        self._channels = geometry.geometry.channels
        self._banks = geometry.geometry.banks_per_channel

    def resident(self, address: int) -> bool:
        """State-only residency probe (prefetch bypass support)."""
        block = address >> 6
        return self._tags.get(block % self.num_slots) == block

    # ------------------------------------------------------------------
    def _access_fast(self, address: int, now: int, is_write: bool) -> int:
        """One access: a TAD probe, plus a fill on a miss.

        Reads consult MAP-I: a predicted miss starts the off-chip fetch
        alongside the probe, a predicted hit only once the probe has
        disproved residency. TAD rows interleave across channels, then
        banks; the probe and the fill use the same row.
        """
        block = address >> 6
        slot = block % self.num_slots
        tags = self._tags
        resident = tags.get(slot) == block
        self._hit = resident
        predicted_miss = not is_write and self.predictor.predict_and_update(
            address, not resident
        )
        tad_row = slot // _TADS_PER_ROW
        channels = self._channels
        channel = tad_row % channels
        bank = (tad_row // channels) % self._banks
        row = tad_row // (channels * self._banks)
        dram_access = self.dram.access_direct_fast
        probe_end = (
            dram_access(channel, bank, row, now, 1, _TAD_TRANSFER_CYCLES)
            + _TAG_COMPARE_CYCLES
        )

        if is_write:
            if resident:
                self._dirty.add(slot)
                return probe_end
            # write-allocate: fetch the rest of the line, then install
            fetch_end = self._fetch_offchip(address, now, bursts=1)
            complete = probe_end
        else:
            if resident:
                # A false miss prediction also launched a useless memory read.
                if predicted_miss:
                    self._fetch_offchip(address, now, bursts=1)
                return probe_end
            # Actual miss: fetch starts at `now` when predicted (parallel
            # access), else only once the probe disproved residency.
            fetch_start = now if predicted_miss else probe_end
            fetch_end = self._fetch_offchip(address, fetch_start, bursts=1)
            complete = fetch_end

        # Fill: a dirty victim writes back at 64 B granularity, and the
        # TAD write is posted at fill time.
        dirty = self._dirty
        victim = tags.get(slot)
        if victim is not None and slot in dirty:
            self._writeback_offchip(victim << 6, fetch_end, bursts=1)
        if is_write:
            dirty.add(slot)
        else:
            dirty.discard(slot)
        tags[slot] = block
        self._post_call(
            fetch_end,
            dram_access,
            channel, bank, row, fetch_end, 1, _TAD_TRANSFER_CYCLES,
        )
        return complete
