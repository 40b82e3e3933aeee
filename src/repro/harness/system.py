"""Full-system wiring: cores + SRAM hierarchy + DRAM cache + memory.

This is the GEM5-mode analogue of the reproduction: per-core access
streams pass through private L1s and the shared LLSC; only LLSC misses
(and dirty LLSC victims) reach the DRAM cache, with MSHR merging of
outstanding block misses; the DRAM cache misses to off-chip memory.
Per-core retirement uses the interval model, so the run produces the
same cycles/ANTT accounting as the paper's timing simulations.

The trace-driven experiments in :mod:`repro.harness.experiments` drive
the DRAM cache directly (the paper's trace-simulator mode); this module
exists for end-to-end runs where LLSC filtering and MSHR behaviour are
part of the question.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.common.config import SystemConfig
from repro.cores.interval import IntervalCore
from repro.cores.metrics import antt
from repro.dramcache.base import DRAMCacheBase
from repro.sram.hierarchy import CacheHierarchy
from repro.sram.mshr import MSHRFile
from repro.workloads.mixes import WorkloadMix
from repro.workloads.trace_cache import program_streams

__all__ = ["SystemStats", "System", "run_system_antt"]


@dataclass
class SystemStats:
    """End-of-run summary of a full-system execution."""

    per_core_cycles: list[float]
    per_core_instructions: list[int]
    l1_hit_rate: float
    llsc_hit_rate: float
    llsc_miss_count: int
    mshr_merges: int
    dram_cache_stats: dict = field(default_factory=dict)

    @property
    def total_cycles(self) -> float:
        return max(self.per_core_cycles) if self.per_core_cycles else 0.0

    def to_dict(self) -> dict:
        """Flat-key export (shared stats protocol; see harness.export).

        DRAM cache counters nest under ``dram_cache.`` so system- and
        cache-level vocabularies stay distinct in one flat namespace.
        """
        out: dict = {
            "num_cores": len(self.per_core_cycles),
            "total_cycles": self.total_cycles,
            "instructions": sum(self.per_core_instructions),
            "l1_hit_rate": self.l1_hit_rate,
            "llsc_hit_rate": self.llsc_hit_rate,
            "llsc_miss_count": self.llsc_miss_count,
            "mshr_merges": self.mshr_merges,
        }
        for key, value in self.dram_cache_stats.items():
            out[f"dram_cache.{key}"] = value
        return out


class System:
    """One CMP: cores, SRAM hierarchy, a DRAM cache and off-chip memory.

    The DRAM cache (with its off-chip controller behind it) is injected,
    so any organization from :mod:`repro.dramcache` / :mod:`repro.bimodal`
    plugs in unchanged.
    """

    def __init__(
        self,
        config: SystemConfig,
        dram_cache: DRAMCacheBase,
        *,
        seed: int = 1,
    ) -> None:
        self.config = config
        self.dram_cache = dram_cache
        self.hierarchy = CacheHierarchy(config.num_cores, config.llsc)
        self.mshrs = MSHRFile(config.llsc.mshrs)
        self.cores = [
            IntervalCore(i, config.core) for i in range(config.num_cores)
        ]
        self.seed = seed

    # ------------------------------------------------------------------
    def _serve_llsc_miss(self, core: IntervalCore, address: int, is_write: bool) -> None:
        """One LLSC miss: MSHR merge or a DRAM cache access."""
        now = core.now
        block = address >> 6
        merged_fill = self.mshrs.lookup(block, now)
        if merged_fill is not None:
            if not is_write:
                core.apply_read_stall(max(0, merged_fill - now))
            return
        result = self.dram_cache.access(address, now, is_write=is_write)
        self.mshrs.allocate(block, now, result.complete)
        if is_write:
            core.note_write()
        else:
            core.apply_read_stall(result.latency)

    def _drive(self, mix: WorkloadMix, core_ids: list[int], accesses_per_core: int):
        programs = program_streams(
            mix, accesses_per_core=accesses_per_core, seed=self.seed
        )
        streams = [iter(programs[core_id]) for core_id in core_ids]
        # core_ids select the mix programs (and address bases); the
        # hardware cores are slot-indexed, so a single-core system can
        # replay any program of a larger mix standalone. The heap is
        # keyed on each core's *next access arrival time* so requests
        # reach the shared hierarchy in global time order even with
        # divergent core clocks.
        cores = self.cores[: len(core_ids)]
        heap: list[tuple[float, int, tuple]] = []
        for slot in range(len(core_ids)):
            record = next(streams[slot], None)
            if record is not None:
                arrival = cores[slot].cycles + record[2] * self.config.core.base_cpi
                heap.append((arrival, slot, record))
        heapq.heapify(heap)
        while heap:
            _, slot, record = heapq.heappop(heap)
            address, is_write, icount = record
            core = cores[slot]
            core.advance_compute(icount)
            outcome = self.hierarchy.access(
                core.core_id, address, is_write=is_write
            )
            core.cycles += outcome.latency  # SRAM lookup time
            if outcome.level == "miss":
                if outcome.writeback_address is not None:
                    # dirty LLSC victim flows into the DRAM cache
                    self.dram_cache.access(
                        outcome.writeback_address, core.now, is_write=True
                    )
                self._serve_llsc_miss(core, address, is_write)
            nxt = next(streams[slot], None)
            if nxt is not None:
                arrival = core.cycles + nxt[2] * self.config.core.base_cpi
                heapq.heappush(heap, (arrival, slot, nxt))

    # ------------------------------------------------------------------
    def run(self, mix: WorkloadMix, *, accesses_per_core: int = 20_000) -> SystemStats:
        """Run every program of ``mix`` to its per-core access quota."""
        if mix.num_cores != self.config.num_cores:
            raise ValueError(
                f"mix has {mix.num_cores} programs, system has "
                f"{self.config.num_cores} cores"
            )
        self._drive(mix, list(range(mix.num_cores)), accesses_per_core)
        l1_hits = sum(l1.accesses.hits for l1 in self.hierarchy.l1s)
        l1_total = sum(l1.accesses.total for l1 in self.hierarchy.l1s)
        return SystemStats(
            per_core_cycles=[c.cycles for c in self.cores],
            per_core_instructions=[c.instructions for c in self.cores],
            l1_hit_rate=l1_hits / l1_total if l1_total else 0.0,
            llsc_hit_rate=self.hierarchy.llsc.hit_rate,
            llsc_miss_count=self.hierarchy.llsc.accesses.misses,
            mshr_merges=self.mshrs.merged_misses,
            dram_cache_stats=self.dram_cache.stats_snapshot(),
        )


def run_system_antt(
    config: SystemConfig,
    mix: WorkloadMix,
    cache_factory,
    *,
    accesses_per_core: int = 10_000,
    seed: int = 1,
) -> tuple[float, SystemStats]:
    """Full-system ANTT: multiprogrammed + per-program standalone runs.

    ``cache_factory`` builds a fresh DRAM cache (with its own off-chip
    controller) per run, exactly like the trace-driven ANTT protocol.
    """
    from repro.obs import get_metrics, get_tracer

    tracer = get_tracer()
    with tracer.span(
        "system.multiprog", cores=mix.num_cores, seed=seed
    ) as span:
        system = System(config, cache_factory(), seed=seed)
        mp = system.run(mix, accesses_per_core=accesses_per_core)
        if tracer.enabled:
            span["llsc_miss_count"] = mp.llsc_miss_count
            span["total_cycles"] = mp.total_cycles
    standalone = []
    for i in range(mix.num_cores):
        with tracer.span("system.standalone", program=i, seed=seed):
            solo = System(_single_core_config(config), cache_factory(), seed=seed)
            # Same per-program seed and address base as the shared run:
            # the solo system replays program i of the mix in isolation.
            solo._drive(mix, [i], accesses_per_core)
            standalone.append(solo.cores[0].cycles)
    value = antt(mp.per_core_cycles, standalone)
    if tracer.enabled:
        tracer.point("system.antt", antt=value, cores=mix.num_cores)
        registry = get_metrics()
        registry.observe("system.antt", value)
        registry.update(mp.to_dict(), prefix="system")
    return value, mp


def _single_core_config(config: SystemConfig) -> SystemConfig:
    from dataclasses import replace

    return replace(config, num_cores=1)
