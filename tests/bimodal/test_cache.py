"""BiModalCache integration tests."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bimodal.cache import BiModalCache, BiModalConfig
from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController
from tests.bimodal.oracle import record_block_touch


def make_cache(**config_overrides) -> BiModalCache:
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,  # 1 MB: 512 sets of 2 KB
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = MemoryController(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    defaults = dict(
        locator_index_bits=8,
        predictor_index_bits=8,
        tracker_sample_every=2,
        adaptation_interval=500,
        address_bits=36,
    )
    defaults.update(config_overrides)
    return BiModalCache(geometry, offchip, BiModalConfig(**defaults))


class TestBasicCaching:
    def test_miss_then_hit(self):
        cache = make_cache()
        first = cache.access(0x10000, 0)
        assert not first.hit
        second = cache.access(0x10000, first.complete + 10)
        assert second.hit
        assert second.latency < first.latency

    def test_big_fill_covers_whole_512b(self):
        cache = make_cache()
        r = cache.access(0x10000, 0)
        t = r.complete + 10
        for sub in range(8):
            r = cache.access(0x10000 + 64 * sub, t)
            assert r.hit
            t = r.complete + 5

    def test_hit_rate_accounting(self):
        cache = make_cache()
        cache.access(0x10000, 0)
        cache.access(0x10000, 1000)
        assert cache.hit_stat.hits == 1
        assert cache.hit_stat.misses == 1

    def test_offchip_fetch_on_miss(self):
        cache = make_cache()
        cache.access(0x10000, 0)
        assert cache.offchip_fetched_bytes == 512  # cold = predicted big

    def test_resident_probe(self):
        cache = make_cache()
        assert not cache.resident(0x10000)
        cache.access(0x10000, 0)
        assert cache.resident(0x10000)
        assert cache.resident(0x10000 + 448)


class TestWayLocatorIntegration:
    def test_locator_hit_after_fill(self):
        cache = make_cache()
        cache.access(0x10000, 0)
        cache.access(0x10000, 1000)
        assert cache.locator.lookups.hits >= 1

    def test_locator_hit_skips_metadata_read(self):
        cache = make_cache()
        cache.access(0x10000, 0)
        before = cache.metadata_rbh.total
        cache.access(0x10000, 1000)  # locator hit
        assert cache.metadata_rbh.total == before

    def test_locator_entry_invalidated_on_eviction(self):
        """Fill conflicting blocks until eviction; locator must never
        report an evicted block (the never-wrong invariant)."""
        cache = make_cache()
        am = cache.addr_map
        t = 0
        addresses = [am.rebuild(tag, 5, 0) for tag in range(10)]
        for addr in addresses:
            r = cache.access(addr, t)
            t = r.complete + 10
        for addr in addresses:
            located = cache.locator.lookup(am.set_index(addr), am.tag(addr), 0)
            resident = cache.resident(addr)
            if located is not None:
                assert resident

    def test_hit_branch_matches_reference_lookup(self):
        """The locator probe inlined in ``_access_fast`` agrees with
        ``WayLocator.lookup``, and its hit branch with the reference
        block touch on the set's way lists, access by access."""
        cache = make_cache(
            locator_index_bits=10, predictor_index_bits=12, adaptation_interval=1 << 30
        )
        am = cache.addr_map
        # Sets 0..127 each hold two dense big blocks and a sparse frame
        # above 1 MB whose sub-blocks 3 and 4 are predicted small; the
        # locator probes a bucket per (set, tag).
        sparse = [(1 << 20) + s * 512 for s in range(128)]
        for frame in sparse:
            key = cache._block_key(am.set_index(frame), am.tag(frame))
            for _ in range(4):
                cache.predictor.train(key, was_big=False)
        cache.global_ctrl.force_state(2)  # (2, 16) sets hold both sizes
        rng = random.Random(5)
        hits = {True: 0, False: 0}  # locator hits by is_big
        t = 0
        for i in range(1500):
            if i % 2:
                address = rng.choice(sparse) + 64 * rng.choice((3, 3, 3, 4))
            else:
                address = (
                    (rng.randrange(2) << 18)
                    + rng.randrange(128) * 512
                    + rng.randrange(8) * 64
                )
            is_write = rng.random() < 0.3
            set_index, tag = am.set_index(address), am.tag(address)
            sub = am.sub_block(address)
            bucket = cache.locator._split(set_index, tag)[0]
            oracle = _probe_copy(cache.locator, bucket)
            expected = oracle.lookup(set_index, tag, sub)
            entry = copy.deepcopy(cache._sets.get(set_index))
            small = cache.small_access.hits, cache.small_access.misses
            tag_reads = cache.metadata_rbh.total
            t = cache.access_fast(address, t, is_write) + 3
            if expected is None:
                assert cache.locator.lookups.misses == oracle.lookups.misses
                assert cache.metadata_rbh.total == tag_reads + 1
                continue
            is_big, way = expected
            hits[is_big] += 1
            assert _probe_state(cache.locator, bucket) == _probe_state(oracle, bucket)
            assert cache.metadata_rbh.total == tag_reads
            assert cache._hit
            record_block_touch(entry, is_big, way, sub, is_write)
            assert _set_state(cache._sets[set_index]) == _set_state(entry)
            assert (cache.small_access.hits, cache.small_access.misses) == (
                small[0] + (not is_big),
                small[1] + is_big,
            )
        assert hits[True] > 100 and hits[False] > 100

    def test_disabled_locator(self):
        cache = make_cache(enable_way_locator=False)
        cache.access(0x10000, 0)
        cache.access(0x10000, 1000)
        assert cache.locator is None
        assert cache.way_locator_hit_rate == 0.0
        # every access reads metadata
        assert cache.metadata_rbh.total == 2


def _probe_copy(locator, bucket):
    """A locator a probe of ``bucket`` can mutate without touching ``locator``."""
    oracle = copy.copy(locator)
    oracle.lookups = copy.copy(locator.lookups)
    oracle._table = list(locator._table)
    oracle._table[bucket] = copy.deepcopy(locator._table[bucket])
    return oracle


def _probe_state(locator, bucket):
    """Everything a probe of ``bucket`` reads or writes."""
    entries = [
        (e.key, e.is_big, e.sub_offset, e.way, e.last_use)
        for e in locator._table[bucket]
    ]
    return locator._tick, locator.lookups.hits, locator.lookups.misses, entries


def _set_state(entry):
    return (
        entry.big_tags,
        entry.big_used,
        entry.big_dirty,
        entry.small_keys,
        entry.small_dirty,
        entry._mru,
    )


class TestBiModalBehaviour:
    def test_fixed_mode_never_fills_small(self):
        cache = make_cache(enable_bimodal=False)
        t = 0
        for i in range(300):
            r = cache.access(0x10000 + i * 4096, t)
            t = r.complete + 10
        assert cache.small_fills.value == 0
        assert cache.global_ctrl.state == (4, 0)

    def test_sparse_traffic_trains_toward_small(self):
        """Single-sub-block streaming: evictions classify small, the
        global state leaves (4,0), and small fills appear."""
        cache = make_cache()
        t = 0
        for i in range(4000):
            r = cache.access((i * 512) % (1 << 23), t)  # one sub-block each
            t = r.complete + 10
        assert cache.small_fills.value > 0
        assert cache.global_ctrl.state != (4, 0)

    def test_dense_traffic_stays_big(self):
        cache = make_cache()
        t = 0
        for i in range(1000):
            base = (i * 512) % (1 << 21)
            for sub in range(8):
                r = cache.access(base + 64 * sub, t)
                t = r.complete + 5
        assert cache.global_ctrl.state == (4, 0)
        assert cache.small_fills.value == 0

    def test_small_fill_fetches_64b(self):
        cache = make_cache()
        # Train predictor toward small for everything.
        for key in range(1 << 10):
            cache.predictor.train(key << 10, was_big=False)
            cache.predictor.train(key << 10, was_big=False)
        cache.global_ctrl.force_state(2)
        fetched_before = cache.offchip_fetched_bytes
        cache.access(0x40000, 0)
        fetched = cache.offchip_fetched_bytes - fetched_before
        assert fetched in (64, 512)  # small unless override path fired
        if cache.small_fills.value:
            assert fetched == 64


class TestWritebacks:
    def test_dirty_sub_block_granularity(self):
        """Evicting a big block writes back only dirty 64 B sub-blocks."""
        cache = make_cache()
        am = cache.addr_map
        t = 0
        victim = am.rebuild(0, 9, 0)
        r = cache.access(victim, t, is_write=True)  # dirty sub-block 0
        t = r.complete + 10
        r = cache.access(victim + 64, t)  # clean sub-block 1
        t = r.complete + 10
        # Evict by filling the same set with other big blocks.
        for tag in range(1, 8):
            r = cache.access(am.rebuild(tag, 9, 0), t)
            t = r.complete + 10
        cache.flush_posted()
        assert cache.offchip_writeback_bytes == 64

    def test_clean_eviction_no_writeback(self):
        cache = make_cache()
        am = cache.addr_map
        t = 0
        for tag in range(8):
            r = cache.access(am.rebuild(tag, 9, 0), t)
            t = r.complete + 10
        assert cache.offchip_writeback_bytes == 0


class TestWasteAccounting:
    def test_unused_sub_blocks_counted(self):
        cache = make_cache()
        am = cache.addr_map
        t = 0
        for tag in range(8):  # single-sub-block use, big fills
            r = cache.access(am.rebuild(tag, 9, 0), t)
            t = r.complete + 10
        # at least 4 evictions with 7 unused sub-blocks each
        assert cache.offchip_wasted_bytes >= 4 * 7 * 64

    def test_fully_used_blocks_waste_nothing(self):
        cache = make_cache()
        am = cache.addr_map
        t = 0
        for tag in range(8):
            for sub in range(8):
                r = cache.access(am.rebuild(tag, 9, sub), t)
                t = r.complete + 5
        assert cache.offchip_wasted_bytes == 0


class TestStatsAndConfig:
    def test_snapshot_keys(self):
        cache = make_cache()
        cache.access(0x1000, 0)
        snap = cache.stats_snapshot()
        for key in (
            "hit_rate",
            "way_locator_hit_rate",
            "metadata_rbh",
            "small_access_fraction",
            "space_utilization",
            "avg_tag_latency",
            "global_state",
        ):
            assert key in snap

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.access(0x10000, 0)
        cache.reset_stats()
        assert cache.hit_stat.total == 0
        assert cache.resident(0x10000)

    def test_parallel_vs_serial_tag_latency(self):
        """Locator-miss hits are faster with parallel tag+data issue."""

        def locator_miss_hit_latency(parallel):
            cache = make_cache(
                enable_way_locator=False, parallel_tag_data=parallel
            )
            cache.access(0x10000, 0)
            r = cache.access(0x10000, 100_000)
            return r.latency

        assert locator_miss_hit_latency(True) < locator_miss_hit_latency(False)

    def test_colocated_metadata_mode(self):
        cache = make_cache(colocated_metadata=True, enable_way_locator=False)
        cache.access(0x10000, 0)
        cache.access(0x10000, 100_000)
        assert cache.metadata_rbh.total == 2


@settings(max_examples=15, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(
            st.integers(0, 255),  # region id
            st.integers(0, 7),  # sub-block
            st.booleans(),  # write
        ),
        min_size=10,
        max_size=150,
    )
)
def test_residency_model_consistency(accesses):
    """After any access sequence: a second access to the same address is
    always a hit, and the locator never contradicts set contents."""
    cache = make_cache(adaptation_interval=50)
    am = cache.addr_map
    t = 0
    for region, sub, is_write in accesses:
        addr = region * 512 + sub * 64
        r = cache.access(addr, t, is_write=is_write)
        t = r.complete + 3
        again = cache.access(addr, t)
        assert again.hit
        t = again.complete + 3
    # locator consistency sweep
    for region in range(256):
        for sub in range(8):
            addr = region * 512 + sub * 64
            located = cache.locator.lookup(
                am.set_index(addr), am.tag(addr), am.sub_block(addr)
            )
            if located is not None:
                assert cache.resident(addr)


@pytest.mark.parametrize(
    "set_size,big_block_size", [(2048, 256), (2048, 512), (8192, 1024)]
)
def test_space_utilization_counts_the_whole_big_block(set_size, big_block_size):
    """One set, one big block, every sub-block touched: utilization 1.0.

    A resident big block commits ``big_block_size`` bytes, so the 256 B
    and 1 KB shapes must read the same as 512 B.
    """
    geometry = DRAMCacheGeometry(
        capacity=set_size,  # a single set
        geometry=DRAMGeometry(channels=1, banks_per_channel=2, page_size=set_size),
    )
    offchip = MemoryController(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    cache = BiModalCache(
        geometry,
        offchip,
        BiModalConfig(
            set_size=set_size,
            big_block_size=big_block_size,
            address_bits=36,
            locator_index_bits=4,
            predictor_index_bits=4,
        ),
    )
    now = 0
    for sub in range(big_block_size // 64):
        now = cache.access(sub * 64, now).complete + 10
    assert cache.big_fills.value == 1
    assert cache.space_utilization() == 1.0
    assert cache.stats_snapshot()["space_utilization"] == 1.0
