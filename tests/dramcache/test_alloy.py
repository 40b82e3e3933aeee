"""AlloyCache tests."""

import random

import pytest

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController
from repro.dramcache.alloy import AlloyCache, MAPPredictor


def make_cache() -> AlloyCache:
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = MemoryController(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    return AlloyCache(geometry, offchip)


class _TwoStepPredictor(MAPPredictor):
    """MAP-I as a separate predict step and update step (the reference)."""

    __slots__ = ()

    def _index(self, address: int) -> int:
        region = address >> 12
        return ((region * 2_654_435_761) >> 15) & self._mask

    def predict_miss(self, address: int) -> bool:
        return self._counters[self._index(address)] >= 2

    def update(self, address: int, was_miss: bool) -> None:
        idx = self._index(address)
        predicted_miss = self._counters[idx] >= 2
        if predicted_miss == was_miss:
            self.correct += 1
        else:
            self.wrong += 1
        if was_miss:
            if self._counters[idx] < 3:
                self._counters[idx] += 1
        elif self._counters[idx] > 0:
            self._counters[idx] -= 1


def train_toward_hit(cache: AlloyCache, address: int) -> None:
    """Drop the region's MAP-I counter from its initial 3 to 1 (predict hit)."""
    for _ in range(2):
        cache.predictor.predict_and_update(address, was_miss=False)


class TestMAPPredictor:
    def test_cold_predicts_miss(self):
        assert MAPPredictor().predict_and_update(0x1234, was_miss=False)

    def test_hits_train_toward_hit(self):
        p = MAPPredictor()
        for _ in range(4):
            p.predict_and_update(0x1234, was_miss=False)
        assert not p.predict_and_update(0x1234, was_miss=False)

    def test_accuracy(self):
        p = MAPPredictor()
        p.predict_and_update(0x1234, was_miss=True)  # predicted miss -> correct
        assert p.accuracy == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MAPPredictor(0)

    def test_predict_and_update_matches_two_steps(self):
        """One pass gives the predict-then-update pair's answers and state."""
        rng = random.Random(11)
        one = MAPPredictor(256)
        two = _TwoStepPredictor(256)
        regions = [rng.randrange(1 << 28) << 12 for _ in range(40)]
        for _ in range(5000):
            address = rng.choice(regions) + rng.randrange(4096)
            was_miss = rng.random() < 0.4
            expected = two.predict_miss(address)
            two.update(address, was_miss)
            assert one.predict_and_update(address, was_miss) == expected
            assert (one.correct, one.wrong) == (two.correct, two.wrong)
        assert one._counters == two._counters
        assert one.correct > 1000 and one.wrong > 1000


class TestAlloyCache:
    def test_direct_mapped_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x4000, 0).hit
        assert cache.access(0x4000, 1000).hit

    def test_64b_blocks_no_spatial_prefetch(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        assert not cache.access(0x4040, 1000).hit

    def test_direct_mapped_conflict(self):
        cache = make_cache()
        conflict = 0x4000 + cache.num_slots * 64
        cache.access(0x4000, 0)
        cache.access(conflict, 1000)
        assert not cache.access(0x4000, 2000).hit

    def test_no_wasted_offchip_bandwidth(self):
        """Alloy fetches exactly the 64 B it uses (Table I)."""
        cache = make_cache()
        t = 0
        for i in range(50):
            r = cache.access(0x4000 + i * 64, t)
            t = r.complete + 10
        assert cache.offchip_wasted_bytes == 0

    def test_predicted_miss_overlaps_fetch(self):
        slow = make_cache()
        train_toward_hit(slow, 0x4000)  # predicted hit -> serial fetch
        fast = make_cache()  # cold MAP predicts miss -> parallel fetch
        lat_serial = slow.access(0x4000, 0).latency
        lat_parallel = fast.access(0x4000, 0).latency
        assert lat_parallel < lat_serial

    def test_false_miss_prediction_costs_bandwidth(self):
        cache = make_cache()
        cache.access(0x4000, 0)
        before = cache.offchip_fetched_bytes
        # cold counters still predict miss for this region on the next
        # access -> a useless parallel fetch is launched on the hit
        cache.access(0x4000, 1000)
        assert cache.offchip_fetched_bytes >= before

    def test_write_allocate(self):
        cache = make_cache()
        cache.access(0x4000, 0, is_write=True)
        assert cache.resident(0x4000)
        assert cache.access(0x4000, 1000).hit

    def test_dirty_eviction_writes_back(self):
        cache = make_cache()
        conflict = 0x4000 + cache.num_slots * 64
        cache.access(0x4000, 0, is_write=True)
        r = cache.access(conflict, 1000)
        cache.flush_posted()
        assert cache.offchip_writeback_bytes == 64

    def test_tads_per_row_capacity(self):
        cache = make_cache()
        rows = (1 << 20) // 2048
        assert cache.num_slots == rows * 28

    def test_hit_latency_single_access(self):
        """A hit is one DRAM access with a slightly larger burst."""
        cache = make_cache()
        cache.access(0x4000, 0)
        r = cache.access(0x4000, 100_000)
        t = cache.geometry.timing
        uncontended = t.trcd + t.cl + 5 + 1
        assert r.latency <= uncontended + t.trp  # at worst a row conflict
