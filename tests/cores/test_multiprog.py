"""Multiprogrammed runner tests."""

import pytest

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.cores.multiprog import MultiProgramRunner
from repro.dram.controller import MemoryController
from repro.dramcache.alloy import AlloyCache
from repro.workloads.mixes import get_mix


def alloy_factory():
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = MemoryController(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    return AlloyCache(geometry, offchip)


@pytest.fixture
def runner():
    return MultiProgramRunner(
        get_mix("Q1"),
        alloy_factory,
        accesses_per_core=1500,
        seed=5,
        footprint_scale=128,
    )


class TestRuns:
    def test_multiprogrammed_run_covers_all_cores(self, runner):
        result = runner.run_multiprogrammed()
        assert len(result.per_core_cycles) == 4
        assert all(c > 0 for c in result.per_core_cycles)
        assert result.total_instructions > 0

    def test_standalone_run_single_core(self, runner):
        result = runner.run_standalone(2)
        assert len(result.per_core_cycles) == 1

    def test_standalone_rejects_out_of_range_program(self, runner):
        for index in (-1, runner.mix.num_cores):
            with pytest.raises(ValueError, match=r"programs are 0\.\.3"):
                runner.run_standalone(index)

    def test_standalone_faster_than_shared(self, runner):
        """Contention must slow programs down relative to standalone."""
        mp = runner.run_multiprogrammed()
        for i in range(4):
            sp = runner.run_standalone(i).per_core_cycles[0]
            assert mp.per_core_cycles[i] >= sp * 0.98  # allow tiny noise

    def test_antt_at_least_one(self, runner):
        antt_value, _ = runner.run_antt()
        assert antt_value >= 0.99

    def test_deterministic(self):
        def run():
            r = MultiProgramRunner(
                get_mix("Q1"),
                alloy_factory,
                accesses_per_core=800,
                seed=9,
                footprint_scale=128,
            )
            return r.run_multiprogrammed().per_core_cycles

        assert run() == run()

    def test_fresh_cache_per_run(self, runner):
        a = runner.run_multiprogrammed()
        b = runner.run_multiprogrammed()
        assert a.per_core_cycles == b.per_core_cycles
        assert a.cache is not b.cache

    def test_run_antt_splits_the_trace_once(self, runner, monkeypatch):
        """All five drives of run_antt reuse the runner's one split."""
        import repro.cores.multiprog as multiprog

        calls = []
        split = multiprog.program_streams

        def counted(*args, **kwargs):
            calls.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(multiprog, "program_streams", counted)
        runner.run_antt()
        assert len(calls) == 1
