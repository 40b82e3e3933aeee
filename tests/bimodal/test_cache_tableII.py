"""Cache-level Table II behaviour: per-set alignment to the global state."""


from repro.bimodal.cache import BiModalCache, BiModalConfig
from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController


def make_cache(**overrides) -> BiModalCache:
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = MemoryController(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    defaults = dict(
        locator_index_bits=8,
        predictor_index_bits=8,
        tracker_sample_every=1,
        adaptation_interval=100_000,  # effectively frozen for these tests
        address_bits=36,
    )
    defaults.update(overrides)
    return BiModalCache(geometry, offchip, BiModalConfig(**defaults))


def force_small_prediction(cache: BiModalCache) -> None:
    """Saturate every predictor entry toward 'small'."""
    for idx in range(len(cache.predictor._counters)):
        cache.predictor._counters[idx] = 0


def force_big_prediction(cache: BiModalCache) -> None:
    for idx in range(len(cache.predictor._counters)):
        cache.predictor._counters[idx] = 3


class TestAlignedState:
    def test_aligned_big_prediction_replaces_big(self):
        cache = make_cache()
        am = cache.addr_map
        t = 0
        for tag in range(5):  # 5 big fills into a 4-way set
            r = cache.access(am.rebuild(tag, 7, 0), t)
            t = r.complete + 10
        entry = cache._sets[7]
        assert entry.state == (4, 0)
        resident = sum(1 for t in entry.big_tags if t is not None)
        assert resident == 4

    def test_aligned_small_prediction_at_4_0_overridden_to_big(self):
        """Table II has no small slot at (4,0)/(4,0): the fill proceeds
        big and the override is counted."""
        cache = make_cache()
        force_small_prediction(cache)
        cache.access(0x40000, 0)
        assert cache.small_pred_overridden.value == 1
        assert cache.big_fills.value == 1
        assert cache._sets[cache.addr_map.set_index(0x40000)].state == (4, 0)


class TestMisalignedStates:
    def test_small_prediction_converts_set_toward_global(self):
        """Set at (4,0), global at (3,8), predicted small: grow_small
        fires (Table II row: Xs > Xglob, predict small)."""
        cache = make_cache()
        force_small_prediction(cache)
        cache.global_ctrl.force_state(1)  # (3, 8)
        cache.access(0x40000, 0)
        entry = cache._sets[cache.addr_map.set_index(0x40000)]
        assert entry.state == (3, 8)
        assert cache.small_fills.value == 1
        assert cache.set_state_transitions.value == 1

    def test_big_prediction_on_smaller_set_grows_big(self):
        """Set at (3,8), global back at (4,0), predicted big: grow_big
        evicts the 8 small ways (Table II row: Xs < Xglob, predict big)."""
        cache = make_cache()
        am = cache.addr_map
        force_small_prediction(cache)
        cache.global_ctrl.force_state(1)
        t = 0
        r = cache.access(am.rebuild(1, 9, 0), t)  # converts set 9 to (3,8)
        t = r.complete + 10
        entry = cache._sets[9]
        assert entry.state == (3, 8)
        # now demand flips big and global returns to all-big
        force_big_prediction(cache)
        cache.global_ctrl.force_state(0)
        r = cache.access(am.rebuild(2, 9, 0), t)
        assert entry.state == (4, 0)
        assert entry.find_big(2) is not None

    def test_big_prediction_on_smaller_set_without_global_change(self):
        """Set at (3,8) aligned with global (3,8): a big prediction
        replaces a big block without changing the state."""
        cache = make_cache()
        am = cache.addr_map
        force_small_prediction(cache)
        cache.global_ctrl.force_state(1)
        t = 0
        r = cache.access(am.rebuild(1, 9, 0), t)
        t = r.complete + 10
        force_big_prediction(cache)
        for tag in range(2, 7):
            r = cache.access(am.rebuild(tag, 9, 0), t)
            t = r.complete + 10
        entry = cache._sets[9]
        assert entry.state == (3, 8)
        assert sum(1 for t in entry.big_tags if t is not None) == 3

    def test_small_fill_lands_in_small_way_and_serves_64b(self):
        cache = make_cache()
        am = cache.addr_map
        force_small_prediction(cache)
        cache.global_ctrl.force_state(2)  # (2, 16)
        # Per-set alignment moves one Table II step per miss: two small
        # misses take the set (4,0) -> (3,8) -> (2,16).
        addr = am.rebuild(5, 11, 3)
        fetched_before = cache.offchip_fetched_bytes
        r = cache.access(addr, 0)
        assert cache.offchip_fetched_bytes - fetched_before == 64
        entry = cache._sets[11]
        assert entry.state == (3, 8)
        r2 = cache.access(am.rebuild(6, 11, 1), r.complete + 10)
        assert entry.state == (2, 16)
        assert entry.find_small(5, 3) is not None
        # only the fetched sub-block hits; its neighbours miss
        assert cache.access(addr, r2.complete + 10).hit
        assert not cache.resident(am.rebuild(5, 11, 4))


class TestDirtySmallBlocks:
    def test_small_block_dirty_writeback(self):
        cache = make_cache()
        am = cache.addr_map
        force_small_prediction(cache)
        cache.global_ctrl.force_state(2)
        t = 0
        r = cache.access(am.rebuild(1, 13, 2), t, is_write=True)
        t = r.complete + 10
        # Evict it via a flood of small fills to the same set (random
        # replacement, deterministic under the fixed seed).
        for tag in range(2, 80):
            r = cache.access(am.rebuild(tag, 13, 2), t)
            t = r.complete + 10
        cache.flush_posted()
        assert not cache.resident(am.rebuild(1, 13, 2))
        assert cache.offchip_writeback_bytes >= 64
