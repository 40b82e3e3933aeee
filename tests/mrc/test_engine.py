"""MRC engine: deterministic sampling and one-pass curve estimation."""

import numpy as np
import pytest

from repro.harness.runner import ExperimentSetup
from repro.mrc.engine import MRCSpec, mrc_pass, sample_addresses
from repro.obs import get_metrics
from tests.mrc.oracle import GhostCache

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
        # The list input exercises the explicit-mask scalar fallback;
        # both must select the identical sub-stream.
        vectorized = sample_addresses(addresses, 0.3, seed=5)
        scalar = sample_addresses(addresses.tolist(), 0.3, seed=5)
        assert vectorized == scalar

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


class TestSpecValidation:
    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no curves"):
            MRCSpec().validate()

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            MRCSpec(block_sizes=(64,), sample_rate=rate).validate()

    @pytest.mark.parametrize("fraction", [-0.1, 1.0])
    def test_bad_warmup_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="warmup_fraction"):
            MRCSpec(block_sizes=(64,), warmup_fraction=fraction).validate()


class TestMrcPass:
    def test_one_pass_yields_every_curve(self, addresses):
        result = mrc_pass(
            addresses,
            MRCSpec(
                capacities=(1 << 20, 1 << 22),
                block_sizes=(64, 512),
                associativities=(4, 8),
                xy_capacities=(1 << 20,),
                base_capacity=1 << 22,
                seed=SETUP.seed,
            ),
        )
        assert [p.param for p in result.capacity] == [1 << 20, 1 << 22]
        assert [p.param for p in result.block_size] == [64, 512]
        assert [p.param for p in result.associativity] == [4, 8]
        assert [p.param for p in result.xy] == [1 << 20]
        assert result.total_records == result.sampled_records == len(addresses)
        # One (X, Y) sweep fans out to a ghost per allowed state.
        assert result.ghosts > 6
        assert set(result.best_xy) == {1 << 20}

    def test_ghosts_counts_distinct_walks(self, addresses):
        # The 1 MB 4-way 512 B LRU point is the (4, 0) state of the
        # 1 MB (X, Y) sweep: three states plus the 64 B point run, not
        # five ghosts.
        spec = MRCSpec(
            block_sizes=(64, 512),
            base_capacity=1 << 20,
            base_associativity=4,
            xy_capacities=(1 << 20,),
        )
        before = get_metrics().counters().get("mrc.ghosts", 0)
        result = mrc_pass(addresses, spec)
        assert result.ghosts == 4
        assert get_metrics().counters()["mrc.ghosts"] - before == 4

    def test_full_rate_points_are_exact(self, addresses):
        # At sample rate 1.0 a curve point is the literal ghost walk —
        # integer hits/accesses, zero standard error.
        result = mrc_pass(
            addresses, MRCSpec(block_sizes=(256,), base_capacity=1 << 22)
        )
        [point] = result.block_size
        ghost = GhostCache(1 << 22, 8, 256)
        ghost.consume(addresses.tolist())
        assert (point.hits, point.accesses) == (ghost.hits, ghost.accesses)
        assert point.stderr == 0.0
        assert point.hit_rate == ghost.hit_rate
        assert point.miss_rate == ghost.miss_rate

    def test_pass_is_deterministic(self, addresses):
        spec = MRCSpec(block_sizes=(64, 512), sample_rate=0.5, seed=3)
        assert mrc_pass(addresses, spec) == mrc_pass(addresses, spec)

    def test_sampled_pass_reports_error_bars(self, addresses):
        result = mrc_pass(
            addresses,
            MRCSpec(block_sizes=(64,), sample_rate=0.5, seed=1),
        )
        assert 0 < result.sampled_records < result.total_records
        [point] = result.block_size
        if 0.0 < point.hit_rate < 1.0:
            assert point.stderr > 0.0

    def test_sampled_estimate_tracks_full_pass(self, addresses):
        spec = MRCSpec(
            block_sizes=(512,), base_capacity=SETUP.system.dram_cache.capacity
        )
        full = mrc_pass(addresses, spec).block_size[0]
        sampled = mrc_pass(
            addresses,
            MRCSpec(
                block_sizes=(512,),
                base_capacity=SETUP.system.dram_cache.capacity,
                sample_rate=0.5,
                seed=SETUP.seed,
            ),
        ).block_size[0]
        # Loose bound: the scaled-capacity sampled estimate stays in
        # the neighbourhood of the exact curve (tight 2% bound is the
        # dse_smoke CI gate at rate 1.0; docs/dse.md).
        assert abs(sampled.hit_rate - full.hit_rate) < 0.15

    def test_warmup_fraction_shrinks_measured_window(self, addresses):
        warmed = mrc_pass(
            addresses, MRCSpec(block_sizes=(64,), warmup_fraction=0.5)
        ).block_size[0]
        n = len(addresses)
        assert warmed.accesses == n - n // 2 + 1
