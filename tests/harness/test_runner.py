"""Harness construction and closed-loop drive tests."""

import numpy as np
import pytest

from repro.bimodal.cache import BiModalCache
from repro.dramcache.alloy import AlloyCache
from repro.dramcache.atcache import ATCache
from repro.dramcache.footprint import FootprintCache
from repro.dramcache.lohhill import LohHillCache
from repro.harness.runner import (
    ExperimentSetup,
    build_cache,
    drive_cache,
    run_scheme_on_mix,
    scaled_locator_bits,
)
from repro.workloads.generator import TraceChunk


def _chunk(addresses, is_writes, icount=20):
    return TraceChunk(
        np.asarray(addresses, dtype=np.uint64),
        np.asarray(is_writes, dtype=bool),
        np.full(len(addresses), icount, dtype=np.uint32),
    )


class TestSetup:
    def test_scaled_capacity(self):
        setup = ExperimentSetup(num_cores=4, scale=16)
        assert setup.system.dram_cache.capacity == (128 << 20) // 16

    def test_mix_table_selection(self):
        assert len(ExperimentSetup(num_cores=4).mixes()) == 23
        assert len(ExperimentSetup(num_cores=8).mixes()) == 16

    def test_trace_factory(self):
        setup = ExperimentSetup(num_cores=4, accesses_per_core=100)
        trace = setup.trace("Q1")
        assert trace.total_accesses == 400

    def test_scaled_locator_bits(self):
        assert scaled_locator_bits(14, 16) == 10
        assert scaled_locator_bits(14, 1) == 14


class TestBuildCache:
    @pytest.mark.parametrize(
        "scheme,cls",
        [
            ("alloy", AlloyCache),
            ("lohhill", LohHillCache),
            ("atcache", ATCache),
            ("footprint", FootprintCache),
            ("bimodal", BiModalCache),
            ("wayloc-only", BiModalCache),
            ("bimodal-only", BiModalCache),
            ("fixed512", BiModalCache),
        ],
    )
    def test_all_schemes_buildable(self, scheme, cls):
        setup = ExperimentSetup()
        cache = build_cache(scheme, setup.system, scale=setup.scale)
        assert isinstance(cache, cls)

    def test_component_flags(self):
        setup = ExperimentSetup()
        wayloc = build_cache("wayloc-only", setup.system, scale=setup.scale)
        bionly = build_cache("bimodal-only", setup.system, scale=setup.scale)
        fixed = build_cache("fixed512", setup.system, scale=setup.scale)
        assert wayloc.locator is not None and not wayloc.config.enable_bimodal
        assert bionly.locator is None and bionly.config.enable_bimodal
        assert fixed.locator is None and not fixed.config.enable_bimodal

    def test_unknown_scheme(self):
        setup = ExperimentSetup()
        with pytest.raises(ValueError):
            build_cache("magic", setup.system)


class TestDriveCache:
    def _records(self, n=400):
        return _chunk(
            [(i * 64) % 8192 for i in range(n)], [i % 4 == 0 for i in range(n)]
        )

    def test_drive_counts_accesses(self):
        setup = ExperimentSetup()
        cache = build_cache("alloy", setup.system, scale=setup.scale)
        result = drive_cache(cache, self._records(), streams=4)
        assert result.accesses == 400
        assert result.end_time > 0
        assert result.stats["accesses"] == 400

    def test_window_bounds_outstanding(self):
        setup = ExperimentSetup()
        cache = build_cache("alloy", setup.system, scale=setup.scale)
        result = drive_cache(cache, self._records(), window=2, streams=4)
        assert result.accesses == 400

    def test_warmup_resets_stats(self):
        setup = ExperimentSetup()
        cache = build_cache("alloy", setup.system, scale=setup.scale)
        result = drive_cache(cache, self._records(400), warmup=200, streams=4)
        # only post-warmup accesses are counted
        assert result.stats["accesses"] == 201

    def test_stall_feedback_throttles(self):
        """Higher-latency schemes advance wall-clock further per access."""
        setup = ExperimentSetup()
        fast = build_cache("alloy", setup.system, scale=setup.scale)
        slow = build_cache("fixed512", setup.system, scale=setup.scale)
        # conflicting stream -> misses dominate
        records = _chunk([(i * 977 * 64) % (1 << 22) for i in range(500)], [False] * 500)
        r_fast = drive_cache(fast, records, streams=4)
        r_slow = drive_cache(slow, records, streams=4)
        assert r_slow.end_time > r_fast.end_time * 0.8


class TestRunSchemeOnMix:
    def test_end_to_end(self):
        setup = ExperimentSetup(num_cores=4, accesses_per_core=1500)
        result = run_scheme_on_mix("bimodal", "Q1", setup=setup)
        stats = result.stats
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["avg_read_latency"] > 0
        assert "way_locator_hit_rate" in stats

    def test_deterministic(self):
        setup = ExperimentSetup(num_cores=4, accesses_per_core=1000)
        a = run_scheme_on_mix("alloy", "Q3", setup=setup).stats
        b = run_scheme_on_mix("alloy", "Q3", setup=setup).stats
        assert a == b
