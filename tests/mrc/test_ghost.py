"""Ghost caches vs the reference timing structures (exactness pins).

An LRU ghost claims to be an algorithmic restatement of set-associative
LRU, not an approximation — these tests pin the hit/access integers of
the shared pass against :class:`repro.sram.cache.SetAssociativeCache`
on real mix traces, plus the bi-modal Y == 0 degeneracy the pass's
walk de-duplication rests on and the warm-up counter contract the dse
driver relies on. tests/mrc/test_shared_pass.py holds every row of the
pass to the per-ghost reference loops.
"""

import pytest

from repro.bimodal.sets import allowed_states
from repro.harness.runner import ExperimentSetup
from repro.mrc.ghost import AdaptiveGhost, BiModalGhost, LRUGhost, ghost_pass
from repro.sram.cache import SetAssociativeCache
from tests.mrc.oracle import GhostBiModal

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1500)


@pytest.fixture(scope="module")
def stream():
    return SETUP.trace_records("Q2").addresses.tolist()


def _reference_counts(stream, capacity, associativity, block_size):
    cache = SetAssociativeCache(capacity, associativity, block_size)
    for address in stream:
        cache.access(address)
    return cache.accesses.hits, cache.accesses.total


def _counts(stream, ghost, warmup=0):
    [count] = ghost_pass(stream, [ghost], warmup=warmup).counts
    return count


class TestGhostCacheExactness:
    @pytest.mark.parametrize("block_size", [64, 256, 1024])
    def test_matches_reference_lru_across_block_sizes(self, stream, block_size):
        capacity = SETUP.system.dram_cache.capacity
        ghost = _counts(stream, LRUGhost(capacity, 8, block_size))
        assert (ghost.hits, ghost.accesses) == _reference_counts(
            stream, capacity, 8, block_size
        )

    @pytest.mark.parametrize("associativity", [1, 4, 16])
    def test_matches_reference_lru_across_associativities(
        self, stream, associativity
    ):
        capacity = 1 << 20  # small enough to force evictions
        ghost = _counts(stream, LRUGhost(capacity, associativity, 64))
        assert (ghost.hits, ghost.accesses) == _reference_counts(
            stream, capacity, associativity, 64
        )

    def test_miss_rate_matches_reference_division(self, stream):
        # The Figure 1 rewire requires misses/total bit-for-bit.
        capacity = SETUP.system.dram_cache.capacity
        ghost = _counts(stream, LRUGhost(capacity, 8, 512))
        reference = SetAssociativeCache(capacity, 8, 512)
        for address in stream:
            reference.access(address)
        assert ghost.miss_rate == reference.accesses.miss_rate


class TestWarmup:
    def test_counters_restart_at_warmup_record(self, stream):
        warmup = len(stream) // 2
        ghost = _counts(stream, LRUGhost(1 << 20, 4, 64), warmup)
        # The warmup-th record is the first measured one.
        assert ghost.accesses == len(stream) - warmup + 1
        assert 0 <= ghost.hits <= ghost.accesses

    def test_warmup_keeps_contents(self, stream):
        # Warm contents must survive the counter reset: a warmed ghost
        # cannot measure fewer hits than a cold one over the same tail.
        warmup = len(stream) // 2
        warmed = _counts(stream, LRUGhost(1 << 22, 8, 64), warmup)
        cold = _counts(stream[warmup - 1:], LRUGhost(1 << 22, 8, 64))
        assert warmed.accesses == cold.accesses
        assert warmed.hits >= cold.hits

    def test_zero_warmup_counts_everything(self, stream):
        ghost = _counts(stream, LRUGhost(1 << 20, 4, 64), 0)
        assert ghost.accesses == len(stream)


class TestGhostBiModal:
    def test_y_zero_degenerates_to_big_block_lru(self, stream):
        # With no small ways every fill is a 512 B block: the bi-modal
        # set is plain X-way LRU at the big-block grain, so the pass
        # runs both requests as one walk.
        capacity = 1 << 20
        oracle = GhostBiModal(
            capacity, set_size=2048, big_block_size=512, big_ways=4, small_ways=0
        )
        oracle.consume(stream)
        result = ghost_pass(
            stream,
            [
                BiModalGhost(capacity, 4, 0, set_size=2048, big_block_size=512),
                LRUGhost(capacity, 4, 512),
            ],
        )
        bimodal, plain = result.counts
        assert result.walks == 1
        assert (bimodal.hits, bimodal.accesses) == (plain.hits, plain.accesses)
        assert (plain.hits, plain.accesses) == (oracle.hits, oracle.accesses)

    def test_disallowed_state_rejected(self):
        with pytest.raises(ValueError, match="not an allowed state"):
            BiModalGhost(1 << 20, 4, 1, set_size=2048, big_block_size=512)

    def test_warmup_contract_matches_ghost_cache(self, stream):
        warmup = len(stream) // 2
        ghost = _counts(
            stream, BiModalGhost(1 << 20, 2, 16, set_size=2048, big_block_size=512), warmup
        )
        assert ghost.accesses == len(stream) - warmup + 1


class TestAdaptiveGhost:
    def test_reports_the_best_fixed_state(self, stream):
        adaptive = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        states = adaptive.states()
        best, *fixed = ghost_pass(stream, [adaptive, *states]).counts
        rates = {(g.big_ways, g.small_ways): c.hit_rate for g, c in zip(states, fixed)}
        assert best.hit_rate == max(rates.values())
        assert best.best_state in allowed_states(2048, 512)
        assert rates[best.best_state] == best.hit_rate

    def test_covers_every_allowed_state(self):
        adaptive = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        states = {(g.big_ways, g.small_ways) for g in adaptive.states()}
        assert states == set(allowed_states(2048, 512))


class TestValidation:
    def test_non_power_of_two_capacity_rejected(self):
        with pytest.raises(ValueError, match="powers of two"):
            LRUGhost(3 << 20, 8, 64)

    def test_capacity_below_one_set_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            LRUGhost(1 << 10, 8, 512)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ValueError, match="associativity"):
            LRUGhost(1 << 20, 0, 64)

    def test_non_pow2_set_count_rounds_down_and_flags(self):
        # Loh-Hill's 29 ways: 1 MiB / (64 B * 29) = 565 sets -> 512.
        ghost = LRUGhost(1 << 20, 29, 64)
        assert ghost.approximate
        assert ghost.num_sets == 512

    def test_empty_ghost_rates_are_zero(self):
        ghost = _counts([], LRUGhost(1 << 20, 8, 64))
        assert ghost.hit_rate == 0.0
        assert ghost.miss_rate == 0.0
