"""Reference ANTT drive: one core object per program, one method call per record.

This is the loop ``MultiProgramRunner._drive`` replaced: each core is an
:class:`~repro.cores.interval.IntervalCore` that advances through
``advance_compute``, stamps its request with ``now``, and takes the
cache's result through ``apply_read_stall`` (reads, on ``.latency``) or
``note_write`` (writes). The runner now keeps the same state in local
lists; this copy is kept as the oracle it is checked against, not for
speed.
"""

from __future__ import annotations

import heapq

from repro.cores.interval import IntervalCore
from repro.cores.multiprog import MultiProgramRunner, RunResult
from repro.workloads.trace_cache import program_streams


class ReferenceCore(IntervalCore):
    """An interval core advanced record by record through method calls."""

    def advance_compute(self, instructions: int) -> None:
        """Retire ``instructions`` of non-stalled work."""
        self.instructions += instructions
        self.cycles += instructions * self.config.base_cpi

    def apply_read_stall(self, latency: float) -> None:
        """Account one blocking LLSC-miss read of ``latency`` cycles."""
        stall = latency / self.config.memory_level_parallelism
        self.cycles += stall
        self.memory_stall_cycles += stall
        self.reads += 1

    def note_write(self) -> None:
        """Posted write: tracked but non-blocking."""
        self.writes += 1

    @property
    def now(self) -> int:
        """Current time in whole cycles (arrival stamp for requests)."""
        return int(self.cycles)


def reference_drive(runner: MultiProgramRunner, program_indices: list[int]) -> RunResult:
    """Run ``program_indices`` on a fresh cache from ``runner.cache_factory``."""
    cache = runner.cache_factory()
    cores = [ReferenceCore(i, runner.core_config) for i in program_indices]
    programs = program_streams(
        runner._trace_mix,
        accesses_per_core=runner.accesses_per_core,
        seed=runner.seed,
        footprint_scale=runner.footprint_scale,
        intensity_scale=runner.intensity_scale,
    )
    streams = [iter(programs[i]) for i in program_indices]
    base_cpi = runner.core_config.base_cpi
    heap: list[tuple[float, int, tuple]] = []
    for slot in range(len(cores)):
        record = next(streams[slot], None)
        if record is not None:
            arrival = cores[slot].cycles + record[2] * base_cpi
            heapq.heappush(heap, (arrival, slot, record))
    total = runner.accesses_per_core * len(cores)
    global_warm = int(total * runner.warmup_fraction)
    per_core_warm = int(runner.accesses_per_core * runner.warmup_fraction)
    served_total = 0
    served = [0] * len(cores)
    cycle_marks = [0.0] * len(cores)
    while heap:
        _, slot, record = heapq.heappop(heap)
        address, is_write, icount = record
        core = cores[slot]
        core.advance_compute(icount)
        result = cache.access(address, core.now, is_write=is_write)
        if is_write:
            core.note_write()
        else:
            core.apply_read_stall(result.latency)
        served_total += 1
        served[slot] += 1
        if per_core_warm and served[slot] == per_core_warm:
            cycle_marks[slot] = core.cycles
        if global_warm and served_total == global_warm:
            cache.reset_stats()
        nxt = next(streams[slot], None)
        if nxt is not None:
            heapq.heappush(heap, (core.cycles + nxt[2] * base_cpi, slot, nxt))
    return RunResult(
        per_core_cycles=[core.cycles - mark for core, mark in zip(cores, cycle_marks)],
        cores=cores,
        cache=cache,
    )
