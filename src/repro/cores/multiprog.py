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
generation of the mix's merged trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from collections.abc import Callable

from repro.common.config import CoreConfig
from repro.cores.interval import IntervalCore
from repro.cores.metrics import antt
from repro.dramcache.base import DRAMCacheBase
from repro.workloads.generator import ProgramTrace
from repro.workloads.mixes import WorkloadMix
from repro.workloads.trace_cache import program_streams

__all__ = ["RunResult", "MultiProgramRunner", "run_antt"]

CacheFactory = Callable[[], DRAMCacheBase]
"""Builds a fresh DRAM cache *with its own off-chip controller behind it*."""


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
        core_config: CoreConfig | None = None,
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
        self.core_config = core_config or CoreConfig()
        self.accesses_per_core = accesses_per_core
        self.seed = seed
        self.warmup_fraction = warmup_fraction

    # ------------------------------------------------------------------
    def _drive(self, program_indices: list[int]) -> RunResult:
        """Run the given subset of the mix's programs on a fresh cache."""
        cache = self.cache_factory()
        cores = [IntervalCore(i, self.core_config) for i in program_indices]
        programs = program_streams(
            self._trace_mix,
            accesses_per_core=self.accesses_per_core,
            seed=self.seed,
            footprint_scale=self.footprint_scale,
            intensity_scale=self.intensity_scale,
        )
        streams = [iter(programs[i]) for i in program_indices]

        # The heap is keyed on each core's *next access arrival time*
        # (clock + compute gap), so requests reach the shared memory
        # system in global time order even when core clocks diverge —
        # a low-intensity core running far ahead must never stamp bank
        # state that earlier-in-time requests from slower cores then
        # queue behind.
        heap: list[tuple[float, int, tuple]] = []
        for slot in range(len(cores)):
            record = next(streams[slot], None)
            if record is not None:
                address, is_write, icount = record
                arrival = cores[slot].cycles + icount * self.core_config.base_cpi
                heapq.heappush(heap, (arrival, slot, record))
        # Warm-up protocol (Section IV): the core clocks ANTT is computed
        # from cover only each core's *own* measured region — the first
        # ``warmup_fraction`` of its accesses fills caches and trains
        # predictors. Per-core marks matter because heterogeneous paces
        # mean cores cross their warm-up points at very different global
        # times. Cache statistics reset once, at the aggregate boundary.
        total = self.accesses_per_core * len(cores)
        global_warm = int(total * self.warmup_fraction)
        per_core_warm = int(self.accesses_per_core * self.warmup_fraction)
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
                arrival = core.cycles + nxt[2] * self.core_config.base_cpi
                heapq.heappush(heap, (arrival, slot, nxt))
        return RunResult(
            per_core_cycles=[
                core.cycles - mark for core, mark in zip(cores, cycle_marks)
            ],
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


def run_antt(
    mix: WorkloadMix,
    cache_factory: CacheFactory,
    **kwargs,
) -> tuple[float, RunResult]:
    """One-call ANTT measurement for a mix under a cache scheme."""
    runner = MultiProgramRunner(mix, cache_factory, **kwargs)
    return runner.run_antt()
