"""Interval core model tests.

The progress rules live in ``MultiProgramRunner._drive``, so these
tests drive one scripted program through the runner on a stub cache
with a fixed latency. The ``cpi`` and ``stall_fraction`` checks stay on
the ``IntervalCore`` record.
"""

import numpy as np
import pytest

import repro.cores.multiprog as multiprog
from repro.common.config import CoreConfig
from repro.cores.interval import IntervalCore
from repro.cores.multiprog import MultiProgramRunner
from repro.dramcache.base import DRAMCacheAccess
from repro.workloads.generator import TraceChunk
from repro.workloads.mixes import get_mix

CONFIG = CoreConfig(base_cpi=0.5, memory_level_parallelism=2.0)


class StubCache:
    """Completes every access ``latency`` cycles after it arrives."""

    def __init__(self, latency: int) -> None:
        self.latency = latency
        self.arrivals: list = []

    def access(self, address, now, *, is_write=False):
        self.arrivals.append(now)
        return DRAMCacheAccess(False, now, now + self.latency)

    def reset_stats(self) -> None:
        pass


@pytest.fixture
def drive(monkeypatch):
    """Run one program of ``(address, is_write, icount)`` records.

    The records become the program's :class:`TraceChunk`, the stream
    type the runner reads. Returns the core's record, the arrival stamps
    the cache saw and the run's measured cycles.
    """

    def run(records, *, latency=0, warmup_fraction=0.0):
        addresses, writes, icounts = zip(*records)
        chunk = TraceChunk(
            np.array(addresses, dtype=np.uint64),
            np.array(writes, dtype=bool),
            np.array(icounts, dtype=np.uint32),
        )
        monkeypatch.setattr(multiprog, "program_streams", lambda *a, **kw: [chunk])
        cache = StubCache(latency)
        runner = MultiProgramRunner(
            get_mix("Q1"),
            lambda: cache,
            accesses_per_core=len(records),
            warmup_fraction=warmup_fraction,
        )
        runner.core_config = CONFIG
        result = runner.run_standalone(0)
        return result.cores[0], cache.arrivals, result.per_core_cycles[0]

    return run


class TestProgress:
    def test_compute_advances_by_cpi(self, drive):
        core, _, _ = drive([(0, True, 1000)])
        assert core.cycles == pytest.approx(500.0)
        assert core.instructions == 1000

    def test_read_stall_divided_by_mlp(self, drive):
        core, _, _ = drive([(0, False, 0)], latency=200)
        assert core.cycles == pytest.approx(100.0)
        assert core.memory_stall_cycles == pytest.approx(100.0)
        assert core.reads == 1

    def test_writes_do_not_stall(self, drive):
        core, _, _ = drive([(0, True, 0)], latency=200)
        assert core.cycles == 0.0
        assert core.writes == 1
        assert core.reads == 0

    def test_now_is_integer_cycles(self, drive):
        # 1.5 cycles of compute, then 1.0 more: arrivals at 1.5 and 2.5.
        core, arrivals, _ = drive([(0, True, 3), (64, False, 2)], latency=7)
        assert arrivals == [1, 2]
        assert all(isinstance(now, int) for now in arrivals)
        assert core.cycles == pytest.approx(2.5 + 3.5)

    def test_warmup_mark_is_the_cores_own_share(self, drive):
        # Each read adds 1.0 cycle of compute and a 5.0-cycle stall; the
        # clock counts from the end of the second of four records.
        core, _, measured = drive(
            [(64 * i, False, 2) for i in range(4)], latency=10, warmup_fraction=0.5
        )
        assert core.cycles == pytest.approx(24.0)
        assert measured == pytest.approx(12.0)


class TestMetrics:
    def test_cpi(self):
        core = IntervalCore(0, CONFIG, cycles=700.0, instructions=1000)
        assert core.cpi == pytest.approx(0.7)

    def test_cpi_empty(self):
        assert IntervalCore(0, CONFIG).cpi == 0.0

    def test_stall_fraction(self):
        core = IntervalCore(0, CONFIG, cycles=1000.0, memory_stall_cycles=500.0)
        assert core.stall_fraction == pytest.approx(0.5)

    def test_memory_bound_core_is_slower(self, drive):
        fast, _, _ = drive([(64 * i, True, 100) for i in range(100)], latency=300)
        slow, _, _ = drive([(64 * i, False, 100) for i in range(100)], latency=300)
        assert fast.instructions == slow.instructions
        assert slow.cycles > fast.cycles
