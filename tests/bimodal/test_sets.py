"""Bi-modal set tests: (X, Y) states, Table II actions, invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bimodal.sets import SMALLS_PER_BIG, BiModalSet, allowed_states
from tests.bimodal.oracle import ReferenceSet, pool_chooser, record_block_touch


class _FirstDraw(random.Random):
    """An RNG whose draws are always 0: the lowest unprotected way."""

    def randrange(self, *args):
        return 0


first = _FirstDraw()


class TestAllowedStates:
    def test_2kb_states(self):
        assert allowed_states(2048, 512) == ((4, 0), (3, 8), (2, 16))

    def test_4kb_states(self):
        assert allowed_states(4096, 512) == (
            (8, 0),
            (7, 8),
            (6, 16),
            (5, 24),
            (4, 32),
        )

    def test_2kb_256b_states(self):
        states = allowed_states(2048, 256)
        assert states[0] == (8, 0)
        assert states[-1] == (4, 16)  # 4 converted ways x 4 smalls each

    def test_too_small_set_rejected(self):
        with pytest.raises(ValueError):
            allowed_states(512, 512)


@pytest.fixture
def bset():
    return BiModalSet(allowed_states(2048, 512))


class TestBlocks:
    def test_big_block_touch(self, bset):
        for tag in range(4):
            bset.allocate_big(tag, first)
        assert (bset.big_used[3], bset.big_dirty[3]) == (0, 0)
        record_block_touch(bset, True, 3, 3, is_write=False)
        record_block_touch(bset, True, 3, 3, is_write=True)
        record_block_touch(bset, True, 3, 5, is_write=False)
        assert (bset.big_used[3], bset.big_dirty[3]) == (0b101000, 0b1000)
        # (big, tag, sub_offset, dirty_bursts, unused_sub_blocks, utilization)
        assert bset.grow_small() == [(True, 3, 0, 1, 6, 2)]

    def test_small_block_fields(self, bset):
        bset.grow_small()
        way, _ = bset.allocate_small(7, 5, first)
        assert bset.small_keys[way] == 7 * SMALLS_PER_BIG + 5
        assert not bset.small_dirty[way]


class TestLookupAndMRU:
    def test_initial_state_all_big(self, bset):
        assert bset.state == (4, 0)
        assert bset.associativity == 4

    def test_allocate_and_find_big(self, bset):
        way, evicted = bset.allocate_big(0xAB, first)
        assert evicted == []
        assert bset.find_big(0xAB) == way
        assert bset.lookup(0xAB, 3) == (True, way)

    def test_big_block_covers_all_sub_offsets(self, bset):
        bset.allocate_big(0xAB, first)
        for sub in range(8):
            assert bset.lookup(0xAB, sub) is not None

    def test_small_block_requires_offset_match(self, bset):
        bset.grow_small()
        way, _ = bset.allocate_small(0xCD, 3, first)
        assert bset.lookup(0xCD, 3) == (False, way)
        assert bset.lookup(0xCD, 4) is None

    def test_mru_tracks_top2(self, bset):
        bset.touch_mru(True, 0)
        bset.touch_mru(True, 1)
        bset.touch_mru(True, 2)
        assert bset.mru_ways() == {(True, 1), (True, 2)}

    def test_mru_promotion(self, bset):
        bset.touch_mru(True, 0)
        bset.touch_mru(True, 1)
        bset.touch_mru(True, 0)
        assert (True, 0) in bset.mru_ways()


class TestStateTransitions:
    def test_grow_small_converts_highest_way(self, bset):
        for tag in range(4):
            bset.allocate_big(tag, first)
        evicted = bset.grow_small()
        assert bset.state == (3, 8)
        assert len(bset.big_tags) == 3
        assert len(bset.small_keys) == 8
        assert len(evicted) == 1
        assert evicted[0][1] == 3  # the tag of the highest-numbered big way

    def test_grow_small_empty_way_no_eviction(self, bset):
        assert bset.grow_small() == []

    def test_grow_big_evicts_highest_smalls(self, bset):
        bset.grow_small()
        bset.grow_small()
        assert bset.state == (2, 16)
        for i in range(16):
            bset.allocate_small(i, 0, first)
        evicted = bset.grow_big()
        assert bset.state == (3, 8)
        assert len(evicted) == SMALLS_PER_BIG
        # Small ways fill in order, so ways 8..15 hold tags 8..15.
        assert {tag for _, tag, *_ in evicted} == set(range(8, 16))

    def test_cannot_grow_past_bounds(self, bset):
        bset.grow_small()
        bset.grow_small()
        with pytest.raises(RuntimeError):
            bset.grow_small()
        bset.grow_big()
        bset.grow_big()
        with pytest.raises(RuntimeError):
            bset.grow_big()

    def test_grow_small_eviction_reports_waste(self, bset):
        for tag in range(4):
            bset.allocate_big(tag, first)
        record_block_touch(bset, True, 3, 0, is_write=True)
        (big, tag, _, dirty_bursts, unused, utilization), = bset.grow_small()
        assert (big, tag) == (True, 3)
        assert utilization == 1
        assert unused == 7
        assert dirty_bursts == 1


class TestReplacement:
    def test_big_replacement_prefers_empty(self, bset):
        bset.allocate_big(1, first)
        way, evicted = bset.allocate_big(2, first)
        assert evicted == []
        assert way != bset.find_big(1)

    def test_full_set_evicts(self, bset):
        for tag in range(4):
            bset.allocate_big(tag, first)
        way, evicted = bset.allocate_big(99, first)
        assert len(evicted) == 1
        assert bset.find_big(99) == way
        assert bset.find_big(evicted[0][1]) is None

    def test_replacement_protects_mru(self, bset):
        for tag in range(4):
            bset.allocate_big(tag, first)
        bset.touch_mru(True, 0)
        bset.touch_mru(True, 1)
        way, evicted = bset.allocate_big(99, first)
        assert way == 2  # the lowest unprotected way
        assert evicted[0][1] not in (0, 1)

    def test_small_eviction_reports_offset(self, bset):
        bset.grow_small()
        bset.grow_small()
        for i in range(16):
            bset.allocate_small(100 + i, i % 8, first)
        _, evicted = bset.allocate_small(999, 0, first)
        assert len(evicted) == 1
        big, tag, sub_offset, *_ = evicted[0]
        assert big is False
        assert 0 <= sub_offset < 8
        assert (tag - 100) % 8 == sub_offset

    def test_eviction_drops_mru_entry(self, bset):
        for tag in range(4):
            bset.allocate_big(tag, first)
        bset.touch_mru(True, 2)
        bset._evict_big_way(2)
        assert (True, 2) not in bset.mru_ways()


class TestCapacityAccounting:
    def test_resident_bytes(self, bset):
        bset.allocate_big(1, first)
        bset.grow_small()
        bset.allocate_small(2, 0, first)
        assert bset.resident_bytes() == 512 + 64

    def test_used_bytes(self, bset):
        way, _ = bset.allocate_big(1, first)
        record_block_touch(bset, True, way, 0, is_write=False)
        record_block_touch(bset, True, way, 1, is_write=False)
        assert bset.used_bytes() == 128

    def test_state_capacity_constant(self, bset):
        """Every legal state commits exactly the set size in data."""
        for _ in range(3):
            x, y = bset.state
            assert x * 512 + y * 64 == 2048
            if bset.state_rank() < 2:
                bset.grow_small()


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("big"), st.integers(0, 30)),
            st.tuples(st.just("small"), st.integers(0, 30)),
            st.tuples(st.just("grow_small"), st.just(0)),
            st.tuples(st.just("grow_big"), st.just(0)),
        ),
        max_size=60,
    )
)
def test_invariants_under_random_operations(ops):
    """Way-list lengths always match the state; no duplicate tags."""
    bset = BiModalSet(allowed_states(2048, 512))
    for op, arg in ops:
        if op == "big":
            bset.allocate_big(arg, first)
        elif op == "small":
            if bset.y > 0:
                bset.allocate_small(arg, arg % 8, first)
        elif op == "grow_small" and bset.state_rank() < 2:
            bset.grow_small()
        elif op == "grow_big" and bset.state_rank() > 0:
            bset.grow_big()
        x, y = bset.state
        assert len(bset.big_tags) == len(bset.big_used) == len(bset.big_dirty) == x
        assert len(bset.small_keys) == len(bset.small_dirty) == y
        assert x * 512 + y * 64 == 2048
        big_tags = [t for t in bset.big_tags if t is not None]
        assert len(big_tags) == len(set(big_tags))
        small_keys = [k for k in bset.small_keys if k is not None]
        assert len(small_keys) == len(set(small_keys))
        for is_big, way in bset.mru_ways():
            ways = bset.big_tags if is_big else bset.small_keys
            assert way < len(ways)


# ----------------------------------------------------------------------
# the flat set against the block-object oracle
# ----------------------------------------------------------------------
# (set size, big block size): the shapes the figures and `repro dse` build.
SHAPES = ((2048, 512), (4096, 512), (2048, 256), (8192, 1024))

# Fills and MRU touches weigh more than state changes, so the larger
# shapes' small ways fill up too.
_OPS = (
    ("lookup", "read", "write", "mru", "mru", "big", "big")
    + ("small",) * 5
    + ("grow_small", "grow_big")
)
_STEP = st.tuples(
    st.sampled_from(_OPS),
    st.integers(0, 19),  # tag: a few times the ways, so sets fill and evict
    st.integers(0, 15),  # sub-block, taken modulo the shape's count
)


def _oracle_view(ref: ReferenceSet):
    spb = ref.smalls_per_big
    big = ref.big_ways
    small = ref.small_ways
    return (
        ref.state,
        [b.tag if b else None for b in big],
        [b.used_mask if b else 0 for b in big],
        [b.dirty_mask if b else 0 for b in big],
        [b.tag * spb + b.sub_offset if b else None for b in small],
        [b.dirty if b else False for b in small],
        ref._mru,
        ref.resident_bytes(),
        ref.used_bytes(),
    )


def _flat_view(bset: BiModalSet):
    return (
        bset.state,
        bset.big_tags,
        bset.big_used,
        bset.big_dirty,
        bset.small_keys,
        bset.small_dirty,
        bset._mru,
        bset.resident_bytes(),
        bset.used_bytes(),
    )


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    script=st.lists(_STEP, min_size=40, max_size=200),
)
def test_matches_block_oracle(shape, seed, script):
    """Flat lists agree with the block-object set after every step.

    Both sides draw their victims from their own ``random.Random(seed)``,
    so equal way choices and equal RNG states show that the flat victim
    draw picks what the candidate/protected/pool lists picked.
    """
    set_size, big_block = shape
    states = allowed_states(set_size, big_block)
    spb = big_block // 64
    flat = BiModalSet(states, smalls_per_big=spb)
    ref = ReferenceSet(states, smalls_per_big=spb)
    flat_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    choose = pool_chooser(ref_rng)
    for op, tag, sub in script:
        if op == "mru":
            # Promote a resident way picked by number: big on an odd
            # sub-block draw, small on an even one.
            is_big = sub % 2 == 1
            ways = flat.big_tags if is_big else flat.small_keys
            if ways and ways[tag % len(ways)] is not None:
                flat.touch_mru(is_big, tag % len(ways))
                ref.touch_mru(is_big, tag % len(ways))
        elif op in ("lookup", "read", "write"):
            sub %= spb
            found = flat.lookup(tag, sub)
            assert found == ref.lookup(tag, sub)
            if found is not None and op != "lookup":
                is_big, way = found
                record_block_touch(flat, is_big, way, sub, op == "write")
                if is_big:
                    ref.big_ways[way].touch(sub, is_write=op == "write")
                elif op == "write":
                    ref.small_ways[way].dirty = True
                ref.touch_mru(is_big, way)
        elif op == "big":
            way, records = flat.allocate_big(tag, flat_rng)
            ref_way, ref_records = ref.allocate_big(tag, choose)
            assert way == ref_way
            assert records == [r.as_tuple() for r in ref_records]
        elif op == "small":
            if not flat.small_keys:
                continue  # the cache never fills small at Y = 0
            sub %= spb
            way, records = flat.allocate_small(tag, sub, flat_rng)
            ref_way, ref_records = ref.allocate_small(tag, sub, choose)
            assert way == ref_way
            assert records == [r.as_tuple() for r in ref_records]
        else:
            try:
                expected = getattr(ref, op)()
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    getattr(flat, op)()
            else:
                assert getattr(flat, op)() == [r.as_tuple() for r in expected]
        assert _flat_view(flat) == _oracle_view(ref)
        assert flat_rng.getstate() == ref_rng.getstate()
