"""Loh-Hill cache tests."""


from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice
from repro.dramcache.lohhill import LohHillCache


def make_cache() -> LohHillCache:
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = DRAMDevice(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    return LohHillCache(geometry, offchip)


class TestOrganization:
    def test_one_set_per_row(self):
        cache = make_cache()
        assert cache.num_sets == (1 << 20) // 2048

    def test_29_way_associativity(self):
        """29 blocks mapping to one set must all be resident."""
        cache = make_cache()
        t = 0
        addresses = [0x1000 + i * cache.num_sets * 64 for i in range(29)]
        for addr in addresses:
            r = cache.access(addr, t)
            t = r.complete + 10
        for addr in addresses:
            r = cache.access(addr, t)
            assert r.hit
            t = r.complete + 10

    def test_30th_block_evicts_lru(self):
        cache = make_cache()
        t = 0
        addresses = [0x1000 + i * cache.num_sets * 64 for i in range(30)]
        for addr in addresses:
            r = cache.access(addr, t)
            t = r.complete + 10
        assert not cache.resident(addresses[0])
        assert cache.resident(addresses[1])


class TestTiming:
    def test_hit_needs_tags_then_data(self):
        """Compound access: tag read + compare + data column on the open
        row — strictly slower than a single-access scheme's hit."""
        cache = make_cache()
        cache.access(0x4000, 0)
        r = cache.access(0x4000, 100_000)
        t = cache.geometry.timing
        minimum = t.trcd + t.cl + 2 * t.burst_cycles + 1 + t.cl + t.burst_cycles
        assert r.latency >= minimum - t.trcd  # row may be closed or open

    def test_miss_serializes_tag_check_before_fetch(self):
        cache = make_cache()
        r = cache.access(0x4000, 0)
        t = cache.geometry.timing
        # must include stacked tag read before any off-chip latency
        assert r.latency > t.trcd + t.cl + 2 * t.burst_cycles

    def test_write_hit_completes_at_tag_check(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        read = cache.access(0x4000, 100_000)
        write = cache.access(0x4000, 200_000, is_write=True)
        assert write.latency < read.latency


class TestWriteback:
    def test_dirty_eviction(self):
        cache = make_cache()
        t = 0
        cache.access(0x1000, t, is_write=True)
        for i in range(1, 30):
            r = cache.access(0x1000 + i * cache.num_sets * 64, t)
            t = r.complete + 10
        cache.flush_posted()
        assert cache.offchip_writeback_bytes == 64

    def test_no_wasted_bandwidth(self):
        cache = make_cache()
        t = 0
        for i in range(100):
            r = cache.access(i * 64, t)
            t = r.complete + 10
        assert cache.offchip_wasted_bytes == 0
