"""Deterministic sampling and the one shared ghost pass over a trace."""

import numpy as np
import pytest

from repro.harness.runner import ExperimentSetup
from repro.mrc.engine import sample_addresses
from repro.mrc.ghost import AdaptiveGhost, LRUGhost, ghost_pass
from tests.mrc.oracle import GhostCache, sample_addresses_scalar

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1500)


@pytest.fixture(scope="module")
def addresses():
    return SETUP.trace_records("Q2").addresses


class TestSampling:
    def test_rate_one_keeps_everything(self, addresses):
        assert sample_addresses(addresses, 1.0, seed=1) == addresses.tolist()

    def test_same_seed_same_subset(self, addresses):
        first = sample_addresses(addresses, 0.5, seed=7)
        second = sample_addresses(addresses, 0.5, seed=7)
        assert first == second

    def test_different_seeds_differ(self, addresses):
        assert sample_addresses(addresses, 0.5, seed=1) != sample_addresses(
            addresses, 0.5, seed=2
        )

    def test_scalar_path_matches_numpy_path(self, addresses):
        # The scalar oracle reproduces uint64 wraparound with explicit
        # masks; the vectorized hash must select the identical
        # sub-stream, from an array or from a list.
        scalar = sample_addresses_scalar(addresses.tolist(), 0.3, seed=5)
        assert sample_addresses(addresses, 0.3, seed=5) == scalar
        assert sample_addresses(addresses.tolist(), 0.3, seed=5) == scalar

    def test_kept_fraction_tracks_rate(self):
        # Many distinct 4 KB frames so the binomial estimate is tight.
        frames = np.arange(4000, dtype=np.uint64) << np.uint64(12)
        kept = sample_addresses(frames, 0.25, seed=3)
        assert 0.18 < len(kept) / len(frames) < 0.32

    def test_frames_are_kept_or_dropped_whole(self):
        # SHARDS-style spatial sampling: every 64 B line of a 4 KB
        # frame shares the frame's fate, so reuse inside kept frames
        # survives intact.
        frame = 123 << 12
        lines = [frame + offset for offset in range(0, 4096, 64)]
        kept = sample_addresses(lines, 0.5, seed=1)
        assert len(kept) in (0, len(lines))

    def test_sampling_is_an_order_preserving_filter(self, addresses):
        # Membership is per-address (deterministic), so the sampled
        # stream is exactly the original filtered in place.
        kept = sample_addresses(addresses, 0.5, seed=9)
        members = set(kept)
        assert kept == [a for a in addresses.tolist() if a in members]


class TestMrcPass:
    """A miss-ratio-curve pass: sample the stream, then one ghost_pass."""

    def test_one_pass_yields_every_curve(self, addresses):
        # Capacity, block-size, associativity and (X, Y) points resolve
        # together; the counts line up with the requested ghosts.
        ghosts = [
            LRUGhost(1 << 20, 8),
            LRUGhost(1 << 22, 8),
            LRUGhost(1 << 22, 8, 512),
            LRUGhost(1 << 22, 4),
            AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512),
        ]
        result = ghost_pass(addresses, ghosts)
        assert len(result.counts) == len(ghosts)
        assert all(c.accesses == len(addresses) for c in result.counts)
        assert [c.best_state for c in result.counts[:4]] == [(0, 0)] * 4
        assert result.counts[4].best_state != (0, 0)
        # One (X, Y) sweep fans out to a walk per allowed state.
        assert result.walks > 6

    def test_ghosts_counts_distinct_walks(self, addresses):
        # The 1 MB 4-way 512 B LRU point is the (4, 0) state of the
        # 1 MB (X, Y) sweep: three states plus the 64 B point run, not
        # five walks.
        ghosts = [
            LRUGhost(1 << 20, 4, 64),
            LRUGhost(1 << 20, 4, 512),
            AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512),
        ]
        assert ghost_pass(addresses, ghosts).walks == 4

    def test_full_rate_points_are_exact(self, addresses):
        # At sample rate 1.0 a count is the literal ghost walk: integer
        # hits/accesses, and the reference's rate arithmetic.
        [count] = ghost_pass(addresses, [LRUGhost(1 << 22, 8, 256)]).counts
        ghost = GhostCache(1 << 22, 8, 256)
        ghost.consume(addresses.tolist())
        assert (count.hits, count.accesses) == (ghost.hits, ghost.accesses)
        assert count.hit_rate == ghost.hit_rate
        assert count.miss_rate == ghost.miss_rate

    def test_pass_is_deterministic(self, addresses):
        ghosts = [LRUGhost(8 << 20, 8, 64), LRUGhost(8 << 20, 8, 512)]

        def sampled_pass():
            stream = sample_addresses(addresses, 0.5, seed=3)
            return ghost_pass(stream, ghosts, sample_rate=0.5)

        assert sampled_pass() == sampled_pass()

    def test_sampled_estimate_tracks_full_pass(self, addresses):
        ghosts = [LRUGhost(SETUP.system.dram_cache.capacity, 8, 512)]
        [full] = ghost_pass(addresses, ghosts).counts
        stream = sample_addresses(addresses, 0.5, SETUP.seed)
        assert 0 < len(stream) < len(addresses)
        [sampled] = ghost_pass(stream, ghosts, sample_rate=0.5).counts
        # Loose bound: the scaled-capacity sampled estimate stays in
        # the neighbourhood of the exact curve (tight 2% bound is the
        # dse_smoke CI gate at rate 1.0; docs/dse.md).
        assert abs(sampled.hit_rate - full.hit_rate) < 0.15

    def test_warmup_fraction_shrinks_measured_window(self, addresses):
        n = len(addresses)
        [warmed] = ghost_pass(
            addresses, [LRUGhost(8 << 20, 8, 64)], warmup=int(n * 0.5)
        ).counts
        assert warmed.accesses == n - n // 2 + 1
