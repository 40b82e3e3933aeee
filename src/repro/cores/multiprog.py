"""Multiprogrammed execution: cores + shared DRAM cache + off-chip memory.

Reproduces the paper's measurement protocol: every program runs in the
multiprogrammed mix (sharing the DRAM cache and memory channels), and
again standalone with identical per-core configuration; ANTT is the mean
per-program slowdown (Section IV). Interleaving follows each core's own
retirement clock, so memory-intensive programs pressure the shared cache
exactly in proportion to their progress.

Each program's record stream is read from the shared trace cache
(:func:`~repro.workloads.trace_cache.program_streams`), so the
multiprogrammed and standalone runs of every scheme reuse one
generation of the mix's merged trace. A runner splits that trace once,
on its first drive, and every later drive reuses the split.

Per record, the drive tracks only each core's stall cycles, records
served and warm-up mark; a record's arrival clock is its heap key, and
it reads only ``.complete`` from ``cache.access``. A core's
instructions, reads and writes are summed from its stream's columns
once per drive, and its totals become
:class:`~repro.cores.interval.IntervalCore` records at the end.
``tests/cores/oracle.py`` keeps the per-record method loop as its
reference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from collections.abc import Callable

from repro.common.config import CoreConfig
from repro.cores.interval import IntervalCore
from repro.cores.metrics import antt
from repro.dramcache.base import DRAMCacheBase
from repro.workloads.generator import ProgramTrace, TraceChunk
from repro.workloads.mixes import WorkloadMix
from repro.workloads.trace_cache import program_streams

__all__ = ["RunResult", "MultiProgramRunner"]

CacheFactory = Callable[[], DRAMCacheBase]
"""Builds a fresh DRAM cache *with its own off-chip memory behind it*."""


@dataclass
class RunResult:
    """Outcome of one (multiprogrammed or standalone) run."""

    per_core_cycles: list[float]
    cores: list[IntervalCore]
    cache: DRAMCacheBase

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)


class MultiProgramRunner:
    """Drives a workload mix through a shared DRAM cache."""

    def __init__(
        self,
        mix: WorkloadMix,
        cache_factory: CacheFactory,
        *,
        accesses_per_core: int = 50_000,
        seed: int = 1,
        footprint_scale: float = 1.0,
        intensity_scale: float = 1.0,
        warmup_fraction: float = 0.3,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.mix = mix.scaled(footprint_scale) if footprint_scale != 1.0 else mix
        self.mix = self.mix.with_intensity_scale(intensity_scale)
        # The trace cache keys on the unscaled mix plus the scales, as
        # ExperimentSetup.trace_records does, so ANTT runs share its entry.
        self._trace_mix = mix
        self.footprint_scale = footprint_scale
        self.intensity_scale = intensity_scale
        self.cache_factory = cache_factory
        self.core_config = CoreConfig()
        self.accesses_per_core = accesses_per_core
        self.seed = seed
        self.warmup_fraction = warmup_fraction
        self._programs: list[TraceChunk] | None = None

    # ------------------------------------------------------------------
    def _drive(self, program_indices: list[int]) -> RunResult:
        """Run the given subset of the mix's programs on a fresh cache."""
        cache = self.cache_factory()
        if self._programs is None:
            self._programs = program_streams(
                self._trace_mix,
                accesses_per_core=self.accesses_per_core,
                seed=self.seed,
                footprint_scale=self.footprint_scale,
                intensity_scale=self.intensity_scale,
            )
        programs = [self._programs[i] for i in program_indices]
        streams = [iter(program) for program in programs]
        ncores = len(program_indices)

        # The heap is keyed on each core's *next access arrival time*
        # (clock + compute gap), so requests reach the shared memory
        # system in global time order even when core clocks diverge —
        # a low-intensity core running far ahead must never stamp bank
        # state that earlier-in-time requests from slower cores then
        # queue behind. The key is the arrival clock itself, and each
        # core has one entry, so the (clock, slot) keys are unique and
        # replacing the top pops in the same order as pop plus push.
        base_cpi = self.core_config.base_cpi
        mlp = self.core_config.memory_level_parallelism
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        access = cache.access
        heap: list[tuple[float, int, tuple]] = []
        for slot in range(ncores):
            record = next(streams[slot], None)
            if record is not None:
                heapq.heappush(heap, (record[2] * base_cpi, slot, record))
        # Warm-up protocol (Section IV): the core clocks ANTT is computed
        # from cover only each core's *own* measured region — the first
        # ``warmup_fraction`` of its accesses fills caches and trains
        # predictors. Per-core marks matter because heterogeneous paces
        # mean cores cross their warm-up points at very different global
        # times. Cache statistics reset once, at the aggregate boundary
        # (a zero mark never matches: counts are >= 1 when compared).
        total = self.accesses_per_core * ncores
        global_warm = int(total * self.warmup_fraction)
        per_core_warm = int(self.accesses_per_core * self.warmup_fraction)
        served_total = 0
        # Per-core interval state (repro.cores.interval).
        cycles = [0.0] * ncores
        stalls = [0.0] * ncores
        served = [0] * ncores
        cycle_marks = [0.0] * ncores
        while heap:
            clock, slot, (address, is_write, _) = heap[0]
            now = int(clock)
            complete = access(address, now, is_write=is_write).complete
            if not is_write:
                stall = (complete - now) / mlp
                clock += stall
                stalls[slot] += stall
            served_total += 1
            done = served[slot] + 1
            served[slot] = done
            if done == per_core_warm:
                cycle_marks[slot] = clock
            if served_total == global_warm:
                cache.reset_stats()
            nxt = next(streams[slot], None)
            if nxt is None:
                cycles[slot] = clock
                heappop(heap)
            else:
                heapreplace(heap, (clock + nxt[2] * base_cpi, slot, nxt))
        config = self.core_config
        cores = []
        for index, program, core_cycles, stalled in zip(program_indices, programs, cycles, stalls):
            _, is_write, icount = program.columns()
            writes = int(is_write.sum())
            reads = len(is_write) - writes
            core = IntervalCore(index, config, core_cycles, int(icount.sum()), stalled, reads, writes)
            cores.append(core)
        return RunResult(
            per_core_cycles=[c - mark for c, mark in zip(cycles, cycle_marks)],
            cores=cores,
            cache=cache,
        )

    # ------------------------------------------------------------------
    def run_multiprogrammed(self) -> RunResult:
        return self._drive(list(range(self.mix.num_cores)))

    def run_standalone(self, program_index: int) -> RunResult:
        num = self.mix.num_cores
        if not 0 <= program_index < num:
            raise ValueError(
                f"program_index {program_index} out of range: the mix's "
                f"programs are 0..{num - 1}"
            )
        return self._drive([program_index])

    def run_antt(self) -> tuple[float, RunResult]:
        """(ANTT, multiprogrammed run result) per the paper's metric."""
        mp = self.run_multiprogrammed()
        standalone = [
            self.run_standalone(i).per_core_cycles[0]
            for i in range(self.mix.num_cores)
        ]
        return antt(mp.per_core_cycles, standalone), mp


def iter_records(trace: ProgramTrace, accesses: int):
    """Flatten a trace's chunks into (address, is_write, icount) tuples.

    The regeneration reference: the tests compare the trace cache's
    per-program streams, which the runner drives, against it, and
    repobench times it as its trace-generation probe.
    """
    for chunk in trace.chunks(accesses):
        yield from chunk

