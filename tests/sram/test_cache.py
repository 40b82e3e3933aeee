"""SetAssociativeCache tests, including hypothesis model checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sram.cache import SetAssociativeCache
from tests.sram.oracle import ReferenceCache


def make_cache(size=8192, assoc=2, block=64, **kw):
    return SetAssociativeCache(size, assoc, block, **kw)


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_block_different_bytes_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x103F)

    def test_contains_has_no_side_effects(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.contains(0x1000)
        assert not cache.contains(0x2000)
        assert cache.accesses.total == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 2, 64)
        with pytest.raises(ValueError):
            SetAssociativeCache(8192, 0, 64)
        with pytest.raises(ValueError):
            SetAssociativeCache(8192, 3, 64)  # non-power-of-two sets

    def test_hit_rate_property(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x0)
        assert cache.hit_rate == pytest.approx(0.5)


class TestEvictionAndWriteback:
    def test_lru_eviction_order(self):
        cache = make_cache(size=128, assoc=2, block=64)  # 1 set, 2 ways
        cache.access(0x000)
        cache.access(0x400)
        cache.access(0x000)  # refresh LRU
        assert not cache.access(0x800)  # evicts 0x400
        assert not cache.contains(0x400)
        assert cache.contains(0x000)
        assert cache.contains(0x800)

    def test_eviction_counters(self):
        cache = make_cache(size=128, assoc=1, block=64)
        cache.access(0x000)
        cache.access(0x1000)
        assert cache.evictions == 1


class TestMRUTracking:
    def test_mru_histogram(self):
        cache = make_cache(size=256, assoc=4, block=64, track_mru=True)
        for addr in (0x0, 0x400, 0x800):
            cache.access(addr)
        cache.access(0x800)  # MRU position 0
        cache.access(0x0)  # position 2 (behind 0x800 and 0x400)
        assert cache.mru_hits.buckets.get(0) == 1
        assert cache.mru_hits.buckets.get(2) == 1

    def test_disabled_by_default(self):
        assert make_cache().mru_hits is None


class TestStats:
    def test_resident_blocks(self):
        cache = make_cache()
        for i in range(5):
            cache.access(i * 64)
        assert cache.resident_blocks() == 5

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.reset_stats()
        assert cache.accesses.total == 0
        assert cache.contains(0x1000)


@settings(max_examples=50, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=63).map(lambda b: b * 64),
        min_size=1,
        max_size=300,
    )
)
def test_fully_associative_matches_lru_reference(addresses):
    """A 1-set LRU cache must match a textbook LRU list model."""
    ways = 4
    cache = SetAssociativeCache(ways * 64, ways, 64)
    reference: list[int] = []  # MRU first
    for addr in addresses:
        block = addr // 64 * 64
        hit = cache.access(addr)
        ref_hit = block in reference
        assert hit == ref_hit
        if ref_hit:
            reference.remove(block)
        reference.insert(0, block)
        del reference[ways:]
    for block in reference:
        assert cache.contains(block)


@settings(max_examples=30, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=2047).map(lambda b: b * 64),
        max_size=400,
    )
)
def test_set_mapped_residency_model(addresses):
    """Every set behaves as an independent LRU of its own blocks."""
    cache = SetAssociativeCache(4096, 2, 64)
    num_sets = cache.num_sets
    model: dict[int, list[int]] = {}
    for addr in addresses:
        block = addr // 64
        set_idx = block % num_sets
        stack = model.setdefault(set_idx, [])
        hit = cache.access(addr)
        assert hit == (block in stack)
        if block in stack:
            stack.remove(block)
        stack.insert(0, block)
        del stack[2:]


# (size, associativity): 1-set 4-way, 1-set 16-way (ATCache's tag cache at
# the default scale), 16-set 2-way and 64-set direct-mapped.
ORACLE_GEOMETRIES = [(256, 4), (1024, 16), (2048, 2), (4096, 1)]
ORACLE_OPS = ("access", "contains", "reset_stats")


def _assert_same_state(cache, oracle):
    assert cache.evictions == oracle.evictions
    assert (cache.accesses.hits, cache.accesses.misses) == (
        oracle.accesses.hits,
        oracle.accesses.misses,
    )
    if oracle.mru_hits is None:
        assert cache.mru_hits is None
    else:
        assert cache.mru_hits.buckets == oracle.mru_hits.buckets
    assert cache.resident_blocks() == oracle.resident_blocks()


@pytest.mark.parametrize("track_mru", [False, True])
@pytest.mark.parametrize("size,associativity", ORACLE_GEOMETRIES)
@settings(max_examples=100, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(ORACLE_OPS),
            st.integers(min_value=0, max_value=3),  # set, of the first four
            st.integers(min_value=0, max_value=31),  # tag, mod 2 x assoc
            st.integers(min_value=0, max_value=63),  # byte offset
        ),
        min_size=20,
        max_size=200,
    )
)
def test_matches_line_oracle(size, associativity, track_mru, script):
    """Recency lists agree with the per-way line model after every step.

    Addresses fall in at most four sets, each with twice as many tags as
    ways, so short scripts already fill, evict and re-fill sets.
    """
    cache = SetAssociativeCache(size, associativity, 64, track_mru=track_mru)
    oracle = ReferenceCache(size, associativity, 64, track_mru=track_mru)
    num_sets = cache.num_sets
    for op, set_index, tag, offset in script:
        block = (tag % (2 * associativity)) * num_sets + set_index % num_sets
        address = block * 64 + offset
        if op == "access":
            assert cache.access(address) == oracle.access(address)
        elif op == "contains":
            assert cache.contains(address) == oracle.contains(address)
        else:
            cache.reset_stats()
            oracle.reset_stats()
        _assert_same_state(cache, oracle)
