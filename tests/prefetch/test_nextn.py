"""Next-N-lines prefetcher tests."""

import pytest

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice
from repro.dramcache.alloy import AlloyCache
from repro.prefetch.nextn import PREF_BYPASS, PREF_NORMAL, NextNPrefetcher


def make_alloy():
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = DRAMDevice(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    return AlloyCache(geometry, offchip)


class TestIssue:
    def test_degree_prefetches_issued(self):
        pf = NextNPrefetcher(make_alloy(), degree=3, mode=PREF_NORMAL)
        pf.access(0x4000, 0)
        assert pf.prefetches_issued == 3

    def test_prefetched_lines_become_hits(self):
        pf = NextNPrefetcher(make_alloy(), degree=1, mode=PREF_NORMAL)
        pf.access(0x4000, 0)
        r = pf.access(0x4040, 100_000)
        assert r.hit

    def test_degree_zero_is_passthrough(self):
        pf = NextNPrefetcher(make_alloy(), degree=0)
        pf.access(0x4000, 0)
        assert pf.prefetches_issued == 0

    def test_writes_do_not_trigger_prefetch(self):
        pf = NextNPrefetcher(make_alloy(), degree=2)
        pf.access(0x4000, 0, is_write=True)
        assert pf.prefetches_issued == 0

    def test_filter_suppresses_duplicates(self):
        pf = NextNPrefetcher(make_alloy(), degree=1)
        pf.access(0x4000, 0)
        pf.access(0x4000, 1000)
        assert pf.prefetches_issued == 1
        assert pf.prefetches_filtered >= 1

    def test_demand_access_filters_future_prefetch(self):
        pf = NextNPrefetcher(make_alloy(), degree=1)
        pf.access(0x4040, 0)  # demand on the line...
        pf.access(0x4000, 1000)  # ...that would now be prefetched
        assert pf.prefetches_filtered >= 1


class TestBypass:
    def test_bypass_does_not_allocate(self):
        pf = NextNPrefetcher(make_alloy(), degree=1, mode=PREF_BYPASS)
        pf.access(0x4000, 0)
        assert pf.bypassed_prefetches == 1
        assert not pf.cache.resident(0x4040)

    def test_bypass_still_fetches_offchip(self):
        pf = NextNPrefetcher(make_alloy(), degree=1, mode=PREF_BYPASS)
        before = pf.cache.offchip_fetched_bytes
        pf.access(0x4000, 0)
        assert pf.cache.offchip_fetched_bytes > before

    def test_bypass_resident_line_goes_through_cache(self):
        pf = NextNPrefetcher(make_alloy(), degree=1, mode=PREF_BYPASS)
        pf.cache.access(0x4040, 0)  # pre-install next line
        pf.access(0x4000, 1000)
        assert pf.bypassed_prefetches == 0

    def test_normal_mode_allocates(self):
        pf = NextNPrefetcher(make_alloy(), degree=1, mode=PREF_NORMAL)
        pf.access(0x4000, 0)
        assert pf.cache.resident(0x4040)


class TestValidation:
    def test_bad_degree(self):
        with pytest.raises(ValueError):
            NextNPrefetcher(make_alloy(), degree=-1)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            NextNPrefetcher(make_alloy(), mode="aggressive")
