"""Victim buffer study tests."""

import pytest

from repro.bimodal.victim import VictimBuffer, VictimProbeWrapper
from repro.bimodal.cache import BiModalCache, BiModalConfig
from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController


def make_cache() -> BiModalCache:
    geometry = DRAMCacheGeometry(
        capacity=1 << 19,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = MemoryController(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    return BiModalCache(
        geometry,
        offchip,
        BiModalConfig(
            locator_index_bits=7,
            predictor_index_bits=8,
            tracker_sample_every=1,
            adaptation_interval=10_000,
            address_bits=36,
        ),
    )


class TestVictimBuffer:
    def test_insert_and_probe(self):
        buf = VictimBuffer(4)
        buf.insert(0x1000)
        assert buf.probe(0x1000)
        assert buf.probe(0x1030)  # same 64B block
        assert not buf.probe(0x2000)

    def test_fifo_capacity(self):
        buf = VictimBuffer(2)
        for addr in (0x1000, 0x2000, 0x3000):
            buf.insert(addr)
        assert not buf.probe(0x1000)
        assert buf.probe(0x2000)
        assert buf.probe(0x3000)
        assert len(buf) == 2

    def test_remove(self):
        buf = VictimBuffer(4)
        buf.insert(0x1000)
        buf.remove(0x1000)
        assert not buf.probe(0x1000)

    def test_hit_rate(self):
        buf = VictimBuffer(4)
        buf.insert(0x1000)
        buf.probe(0x1000)
        buf.probe(0x2000)
        assert buf.hit_rate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            VictimBuffer(0)


class TestVictimProbeWrapper:
    def test_behaviour_unchanged(self):
        """Measurement-only: the wrapped cache's hits are identical."""
        plain = make_cache()
        wrapped = VictimProbeWrapper(make_cache())
        t = 0
        for i in range(600):
            addr = ((i * 977) % 512) * 512
            a = plain.access_fast(addr, t)
            b = wrapped.access_fast(addr, t)
            assert b == a
            assert wrapped.cache._hit == plain._hit
            t = a + 10

    def test_evictions_feed_buffer(self):
        wrapped = VictimProbeWrapper(make_cache(), entries=4096)
        am = wrapped.cache.addr_map
        t = 0
        for tag in range(8):  # overflow a 4-way set
            t = wrapped.access_fast(am.rebuild(tag, 3, 0), t) + 10
        assert wrapped.buffer.insertions > 0

    def test_conflict_reuse_is_a_victim_hit(self):
        """A block evicted and immediately re-accessed probes as a hit —
        the situation a victim cache exists for."""
        wrapped = VictimProbeWrapper(make_cache(), entries=4096)
        am = wrapped.cache.addr_map
        t = 0
        victim_addr = am.rebuild(0, 3, 0)
        t = wrapped.access_fast(victim_addr, t) + 10
        for tag in range(1, 12):
            t = wrapped.access_fast(am.rebuild(tag, 3, 0), t) + 10
        assert not wrapped.cache.resident(victim_addr)
        before = wrapped.buffer.probe_hits
        wrapped.access_fast(victim_addr, t)
        assert wrapped.buffer.probe_hits == before + 1
        assert wrapped.victim_hit_fraction > 0.0
