"""DRAMCacheBase contract tests: accounting and posted-operation order."""

import pytest

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController
from repro.dramcache.base import DRAMCacheBase


class _StubCache(DRAMCacheBase):
    """Minimal concrete cache: everything misses, posts a fill."""

    name = "stub"

    def __init__(self):
        geometry = DRAMCacheGeometry(
            capacity=1 << 20,
            geometry=DRAMGeometry(channels=1, banks_per_channel=4, page_size=2048),
        )
        offchip = MemoryController(
            DRAMGeometry(channels=1, banks_per_channel=4, page_size=2048),
            DRAMTimingConfig.ddr3_1600h(),
        )
        super().__init__(geometry, offchip)
        self.executed: list[int] = []

    def _access_fast(self, address, now, is_write):
        self._hit = False
        return self._fetch_offchip(address, now, bursts=1)


class TestAccounting:
    def test_read_latency_tracked(self):
        cache = _StubCache()
        cache.access(0x1000, 0)
        assert cache.read_latency.count == 1
        assert cache.miss_latency.count == 1
        assert cache.hit_latency.count == 0

    def test_write_latency_not_tracked(self):
        cache = _StubCache()
        cache.access(0x1000, 0, is_write=True)
        assert cache.read_latency.count == 0
        assert cache.hit_stat.total == 1

    def test_wasted_fraction(self):
        cache = _StubCache()
        cache.access(0x1000, 0)  # 64B fetched
        cache._account_waste(1)  # but 64B wasted elsewhere
        assert cache.wasted_fraction() == pytest.approx(1.0)

    def test_wasted_fraction_no_fetch(self):
        assert _StubCache().wasted_fraction() == 0.0

    def test_traffic_totals(self):
        cache = _StubCache()
        cache.access(0x1000, 0)
        cache._writeback_offchip(0x2000, 100, bursts=2)
        cache.flush_posted()
        assert cache.offchip_traffic_bytes() == 64 + 128


class TestPostedOperations:
    def test_posted_runs_only_when_time_arrives(self):
        cache = _StubCache()
        cache._post_call(500, cache.executed.append, 500)
        cache.access(0x1000, 100)  # drain up to t=100: nothing runs
        assert cache.executed == []
        cache.access(0x2000, 600)  # t=600 >= 500: runs
        assert cache.executed == [500]

    def test_posted_order_is_time_then_fifo(self):
        cache = _StubCache()
        cache._post_call(300, cache.executed.append, 1)
        cache._post_call(200, cache.executed.append, 2)
        cache._post_call(300, cache.executed.append, 3)
        cache.access(0x1000, 1000)
        assert cache.executed == [2, 1, 3]

    def test_flush_posted_runs_everything(self):
        cache = _StubCache()
        cache._post_call(10_000, cache.executed.append, 1)
        cache.flush_posted()
        assert cache.executed == [1]

    def test_writeback_is_deferred(self):
        """A writeback stamped in the future must not touch the device
        until simulation time reaches it (causality)."""
        cache = _StubCache()
        cache._writeback_offchip(0x2000, 10_000, bursts=1)
        assert cache.offchip.writes == 0
        assert cache.offchip_writeback_bytes == 64  # accounted eagerly
        cache.access(0x1000, 20_000)
        assert cache.offchip.writes == 1

    def test_snapshot_keys(self):
        cache = _StubCache()
        cache.access(0x1000, 0)
        snap = cache.stats_snapshot()
        for key in (
            "accesses",
            "hit_rate",
            "avg_read_latency",
            "offchip_fetched_bytes",
            "wasted_fraction",
            "stack_rbh",
        ):
            assert key in snap
