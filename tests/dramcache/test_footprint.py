"""Footprint Cache tests."""

import pytest

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice
from repro.dramcache.footprint import FootprintCache, FootprintPredictor


def make_cache(**kw) -> FootprintCache:
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = DRAMDevice(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    return FootprintCache(geometry, offchip, **kw)


class TestPredictor:
    def test_cold_default_full_page(self):
        p = FootprintPredictor()
        footprint = p.predict(12345, 3)
        assert footprint == (1 << 32) - 1

    def test_history_replayed_with_rotation(self):
        p = FootprintPredictor()
        p.record(page_number=10, first_offset=0, footprint=0b111)
        predicted = p.predict(10, 0)
        assert predicted & 0b111 == 0b111
        # Same structure entered at offset 4: footprint rotates.
        rotated = p.predict(10, 4)
        assert (rotated >> 4) & 0b111 == 0b111

    def test_super_region_generalizes_to_new_pages(self):
        """Pages in the same 1 MB span share footprint history — the
        PC-indexing analogue for cold pages of a structure."""
        p = FootprintPredictor()
        p.record(page_number=100, first_offset=0, footprint=0b11)
        assert p.predict(101, 0) & 0b11 == 0b11
        assert p.history_hits == 1

    def test_first_offset_always_included(self):
        p = FootprintPredictor()
        p.record(page_number=10, first_offset=0, footprint=0b1)
        assert p.predict(10, 7) & (1 << 7)

    def test_rotation_roundtrip(self):
        fp = 0b1011
        for shift in range(32):
            assert FootprintPredictor._rotate(
                FootprintPredictor._rotate(fp, shift), -shift
            ) == fp


class TestCaching:
    def test_page_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x4000, 0).hit
        assert cache.access(0x4000, 1000).hit

    def test_cold_page_fetches_full_footprint(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        assert cache.offchip_fetched_bytes == 2048

    def test_footprint_miss_on_unfetched_block(self):
        """A resident page whose predictor skipped a block pays a miss."""
        cache = make_cache(enable_bypass=False)
        # Train: pages in this super-region use only block 0.
        cache.predictor.record(0x4000 // 2048, 0, 0b1)
        cache.access(0x4000, 0)  # fills only block 0
        r = cache.access(0x4000 + 64, 1000)  # block 1 absent
        assert not r.hit
        assert cache.footprint_misses.hits == 1
        # ... but afterwards it is present
        assert cache.access(0x4000 + 64, 2000).hit

    def test_bypass_single_use_pages(self):
        cache = make_cache(enable_bypass=True)
        cache.predictor.record(0x4000 // 2048, 0, 0b1)
        cache.access(0x4000, 0)
        assert cache.bypasses == 1
        assert not cache.resident(0x4000)

    def test_bypass_disabled(self):
        cache = make_cache(enable_bypass=False)
        cache.predictor.record(0x4000 // 2048, 0, 0b1)
        cache.access(0x4000, 0)
        assert cache.bypasses == 0
        assert cache.resident(0x4000)

    def test_eviction_trains_predictor(self):
        cache = make_cache(associativity=1, enable_bypass=False)
        cache.access(0x0000, 0)
        conflict = cache.num_sets * 2048
        cache.access(conflict, 1000)  # evicts page 0, trains footprint 0b1
        cache.access(2 * conflict, 2000)  # evicts page at `conflict`
        # A new page in page-0's super-region now fetches a footprint,
        # not the full page.
        before = cache.offchip_fetched_bytes
        cache.access(4096, 3000)
        fetched = cache.offchip_fetched_bytes - before
        assert fetched < 2048

    def test_waste_accounted_at_eviction(self):
        cache = make_cache(associativity=1)
        cache.access(0x0000, 0)  # full-page fetch, one block used
        cache.access(cache.num_sets * 2048, 1000)
        assert cache.offchip_wasted_bytes == 31 * 64

    def test_dirty_blocks_written_back(self):
        cache = make_cache(associativity=1)
        cache.access(0x0000, 0, is_write=True)
        cache.access(64, 10, is_write=True)
        cache.access(cache.num_sets * 2048, 1000)
        cache.flush_posted()
        assert cache.offchip_writeback_bytes == 128

    def test_serial_tag_latency_floor(self):
        """The SRAM tag store keeps its full-scale cost (>= 6 cycles)."""
        cache = make_cache()
        assert cache.tag_latency >= 6

    def test_too_small_capacity_rejected(self):
        geometry = DRAMCacheGeometry(
            capacity=2048,
            geometry=DRAMGeometry(channels=1, banks_per_channel=2, page_size=2048),
        )
        offchip = DRAMDevice(
            DRAMGeometry(channels=1, banks_per_channel=2, page_size=2048),
            DRAMTimingConfig.ddr3_1600h(),
        )
        with pytest.raises(ValueError):
            FootprintCache(geometry, offchip, associativity=8)
