"""ATCache tests."""

import pytest

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController
from repro.dramcache.atcache import ATCache
from repro.harness.runner import ExperimentSetup, build_cache


def make_cache(**kw) -> ATCache:
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = MemoryController(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    return ATCache(geometry, offchip, **kw)


class TestTagCache:
    def test_tag_cache_records_hits(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        cache.access(0x4000, 1000)
        assert cache.tag_cache_stat.total == 2
        assert cache.tag_cache_stat.hits >= 1

    def test_tag_cache_hit_is_faster(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        miss_path = cache.access(0x4000 + (1 << 18), 100_000)  # far set
        cache.access(0x4000, 200_000)
        hit_path = cache.access(0x4000, 300_000)
        assert hit_path.hit
        assert hit_path.latency < miss_path.latency + 60

    def test_pg_prefetch_groups_sets(self):
        """A tag fill covers the whole PG-aligned group of sets."""
        cache = make_cache(tag_cache_sets=8, prefetch_granularity=8)
        cache.access(0x0000, 0)  # set 0 -> group 0 installed
        cache.access(64 * 3, 1000)  # set 3, same group
        assert cache.tag_cache_stat.hits >= 1

    def test_auto_sizing_scales_with_cache(self):
        small = make_cache()
        assert small.tag_cache.num_sets >= 1

    @pytest.mark.parametrize(
        "num_cores,expected",
        [(4, [4, 2, 1, 1]), (8, [8, 4, 2, 1]), (16, [16, 8, 4, 1])],
    )
    def test_auto_sizing_builds_at_every_scale(self, num_cores, expected):
        """~1% of the sets, rounded down to a power-of-two set count.

        At the paper's unscaled 128 MB the unrounded count is 5 sets.
        """
        sets = []
        for scale in (1, 2, 4, 16):
            setup = ExperimentSetup(num_cores=num_cores, scale=scale)
            cache = build_cache("atcache", setup.system, scale=scale)
            sets.append(cache.tag_cache.num_sets)
        assert sets == expected

    def test_explicit_sizing_respected(self):
        cache = make_cache(tag_cache_sets=4, tag_cache_assoc=4)
        assert cache.tag_cache.num_sets == 4
        assert cache.tag_cache.associativity == 4


class TestCaching:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x4000, 0).hit
        assert cache.access(0x4000, 1000).hit

    def test_tag_cache_miss_serializes_dram_tag_read(self):
        cache = make_cache(tag_cache_sets=1, tag_cache_assoc=1)
        cache.access(0x4000, 0)
        # thrash the 1-entry tag cache with a distant set group
        cache.access(0x4000 + (1 << 19), 100_000)
        r = cache.access(0x4000, 200_000)
        assert r.hit
        t = cache.geometry.timing
        # serial: tag read (2 bursts) + compare + data column
        assert r.latency >= t.cl + 2 * t.burst_cycles + 1 + t.cl + t.burst_cycles

    def test_writeback_on_dirty_eviction(self):
        cache = make_cache()
        t = 0
        cache.access(0x1000, t, is_write=True)
        for i in range(1, 30):
            r = cache.access(0x1000 + i * cache.num_sets * 64, t)
            t = r.complete + 10
        cache.flush_posted()
        assert cache.offchip_writeback_bytes == 64

    def test_stats_snapshot_includes_tag_cache(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        assert "tag_cache_hit_rate" in cache.stats_snapshot()

    def test_reset_stats(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        cache.reset_stats()
        assert cache.tag_cache_stat.total == 0
        assert cache.resident(0x4000)
