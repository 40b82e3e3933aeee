"""Closed-loop trace driving and scheme construction helpers.

The design-space experiments (hit rates, way locator behaviour, RBH,
bandwidth — everything except ANTT) follow the paper's trace-driven
methodology: feed the DRAM cache a merged LLSC-miss stream under a
bounded outstanding-request window (the LLSC's MSHRs provide exactly
this backpressure in hardware), so bank and bus contention stay
realistic without simulating the cores.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.bimodal.cache import BiModalConfig
from repro.common.config import SystemConfig, system_config
from repro.dram.controller import MemoryController
from repro.dramcache.base import DRAMCacheBase
from repro.obs import SectionTimer, get_metrics, get_tracer
from repro.workloads.generator import TraceChunk
from repro.workloads.mixes import WorkloadMix, get_mix
from repro.workloads.trace import MultiProgramTrace
from repro.workloads.trace_cache import materialized_trace

__all__ = [
    "SCALE",
    "ExperimentSetup",
    "build_offchip",
    "build_cache",
    "drive_cache",
    "run_scheme_on_mix",
    "scaled_locator_bits",
]

# Capacity scale factor: all experiments shrink cache capacity and
# workload footprints by the same factor (128 MB -> 8 MB for 4-core) so
# footprint/capacity ratios — which determine every relative result —
# match the paper's setup at Python-simulation speeds.
SCALE = 16


def scaled_locator_bits(paper_k: int = 14, scale: int = SCALE) -> int:
    """Preserve the paper's locator-entries : cache-sets ratio.

    The paper's K=14 gives 32K entry-pairs against a 64K-set 128 MB
    cache; dividing capacity by ``scale`` divides the set count equally,
    so K shrinks by log2(scale).
    """
    return paper_k - (scale.bit_length() - 1)


@dataclass(frozen=True)
class ExperimentSetup:
    """A scaled Table IV configuration for one core count.

    ``intensity_scale`` reduces per-core offered load for larger
    systems so the per-channel utilization matches the operating point
    the paper's workloads produced (8/16-core benches use 0.5).
    """

    num_cores: int = 4
    scale: int = SCALE
    accesses_per_core: int = 60_000
    seed: int = 1
    intensity_scale: float = 1.0

    @property
    def system(self) -> SystemConfig:
        base = system_config(self.num_cores)
        return base.scaled_cache(base.dram_cache.capacity // self.scale)

    @property
    def footprint_scale(self) -> float:
        return float(self.scale)

    def mixes(self) -> dict[str, WorkloadMix]:
        from repro.workloads.mixes import mixes_for_cores

        return mixes_for_cores(self.num_cores)

    def trace(self, mix: WorkloadMix | str) -> MultiProgramTrace:
        if isinstance(mix, str):
            mix = get_mix(mix)
        return MultiProgramTrace(
            mix,
            accesses_per_core=self.accesses_per_core,
            seed=self.seed,
            footprint_scale=self.footprint_scale,
            intensity_scale=self.intensity_scale,
        )

    def trace_records(self, mix: WorkloadMix | str) -> TraceChunk:
        """Merged record arrays for ``mix``, via the trace cache.

        Byte-identical to ``self.trace(mix)``'s record stream; repeated
        cells and re-runs skip generation entirely.
        """
        return materialized_trace(
            mix,
            accesses_per_core=self.accesses_per_core,
            seed=self.seed,
            footprint_scale=self.footprint_scale,
            intensity_scale=self.intensity_scale,
        )


def build_offchip(system: SystemConfig) -> MemoryController:
    return MemoryController(system.offchip_geometry, system.offchip_timing)


def build_cache(
    scheme: str,
    system: SystemConfig,
    *,
    offchip: MemoryController | None = None,
    bimodal_config: BiModalConfig | None = None,
    scale: int = SCALE,
    adaptation_interval: int = 10_000,
) -> DRAMCacheBase:
    """Construct a DRAM cache organization by name.

    Resolution goes through :mod:`repro.harness.schemes`; see
    ``available_schemes()`` there (or ``repro list-schemes``) for the
    registered names. Unknown names raise
    :class:`~repro.harness.schemes.UnknownSchemeError` (a
    ``ValueError``) listing the valid ones.
    """
    from repro.harness.schemes import SchemeBuildContext, build_scheme

    if offchip is None:
        offchip = build_offchip(system)
    return build_scheme(
        scheme,
        SchemeBuildContext(
            system=system,
            offchip=offchip,
            bimodal_config=bimodal_config,
            scale=scale,
            adaptation_interval=adaptation_interval,
        ),
    )


@dataclass
class DriveResult:
    """Summary of one closed-loop drive."""

    cache: DRAMCacheBase
    accesses: int
    end_time: int
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat-key export (shared stats protocol; see harness.export).

        Drive-level totals use ``records``/``end_time`` so they cannot
        collide with the cache snapshot's ``accesses`` (which counts
        only the measured, post-warmup region).
        """
        out: dict = {"records": self.accesses, "end_time": self.end_time}
        out.update(self.stats)
        return out


class _DriveState:
    """Mutable closed-loop issue state threaded through record batches."""

    __slots__ = ("now", "end", "count", "issued", "inflight")

    def __init__(self) -> None:
        self.now = 0.0
        self.end = 0
        self.count = 0
        self.issued = 0
        # Bounded in-flight completion times, kept as a heap. Only the
        # minimum is ever consumed, and only when the window is full, so
        # heappush/heapreplace (O(log window)) replaces the old
        # min() + list.index O(window) scan with identical results: the
        # multiset of in-flight completions is the same either way
        # (pinned by tests/harness/test_drive_window.py).
        self.inflight: list[int] = []


def _drive_batch(
    cache: DRAMCacheBase,
    addresses: list,
    is_writes: list,
    icounts: list,
    state: _DriveState,
    *,
    window: int,
    min_gap: int,
    pace: float,
    stall_scale: float,
) -> None:
    """Issue one batch of records; the hot loop of every drive.

    Arithmetic and ordering are identical to the original per-record
    generator loop: the same ``now`` pacing, the same earliest-completion
    window stall (the heap root equals ``min`` of the old in-flight
    list), and the same int truncation on the access timestamp. The
    allocation-free ``cache.access_fast`` path returns the completion
    time as a plain int; every access starts at the (truncated) issue
    time, so the core-stall term uses it directly.
    """
    access_fast = cache.access_fast
    inflight = state.inflight
    now = state.now
    end = state.end
    depth = len(inflight)
    heap_push = heapq.heappush
    heap_replace = heapq.heapreplace
    for address, is_write, icount in zip(addresses, is_writes, icounts):
        gap = icount * pace
        now += gap if gap > min_gap else min_gap
        if depth >= window:
            earliest = inflight[0]
            if earliest > now:
                now = float(earliest)
            inow = int(now)
            complete = access_fast(address, inow, is_write)
            heap_replace(inflight, complete)
        else:
            inow = int(now)
            complete = access_fast(address, inow, is_write)
            heap_push(inflight, complete)
            depth += 1
        if not is_write:
            now += (complete - inow) * stall_scale
        if complete > end:
            end = complete
    state.now = now
    state.end = end
    state.count += len(addresses)
    state.issued += len(addresses)


def _drive_fast(
    cache: DRAMCacheBase,
    chunks,
    *,
    window: int,
    min_gap: int,
    cycles_per_instruction: float,
    streams: int,
    mlp: float,
    warmup: int,
) -> DriveResult:
    """Drive :class:`TraceChunk` batches through the cache."""
    pace = cycles_per_instruction / max(1, streams)
    stall_scale = 1.0 / (mlp * max(1, streams))
    state = _DriveState()
    for chunk in chunks:
        if not isinstance(chunk, TraceChunk):
            raise TypeError(
                "drive_cache takes a TraceChunk, a MultiProgramTrace or an "
                f"iterable of TraceChunks, not an iterable of {type(chunk).__name__}"
            )
        addresses = chunk.addresses.tolist()
        is_writes = chunk.is_write.tolist()
        icounts = chunk.icount.tolist()
        # The warm-up boundary semantics match the original loop: stats
        # reset immediately *before* the ``warmup``-th record is issued.
        if warmup and state.issued < warmup <= state.issued + len(addresses):
            split = warmup - state.issued - 1
            _drive_batch(
                cache, addresses[:split], is_writes[:split], icounts[:split],
                state, window=window, min_gap=min_gap, pace=pace,
                stall_scale=stall_scale,
            )
            cache.reset_stats()
            addresses = addresses[split:]
            is_writes = is_writes[split:]
            icounts = icounts[split:]
        _drive_batch(
            cache, addresses, is_writes, icounts, state,
            window=window, min_gap=min_gap, pace=pace, stall_scale=stall_scale,
        )
    return DriveResult(  # simlint: off=hot-path-purity -- one record per drive, not per access
        cache=cache,
        accesses=state.count,
        end_time=state.end,
        stats=cache.stats_snapshot(),
    )


def drive_cache(
    cache: DRAMCacheBase,
    records,
    *,
    window: int = 16,
    min_gap: int = 1,
    cycles_per_instruction: float = 0.6,
    streams: int = 4,
    mlp: float = 2.2,
    warmup: int = 0,
) -> DriveResult:
    """Feed (address, is_write, icount) records with bounded outstanding.

    ``records`` is a :class:`~repro.workloads.generator.TraceChunk`, a
    :class:`~repro.workloads.trace.MultiProgramTrace` or an iterable of
    chunks; every form is driven by the same batched loop, and splitting
    a record stream into chunks never changes the result. Anything else
    raises :class:`TypeError`.

    ``warmup`` > 0 drops all statistics gathered during the first that
    many records (cache contents and predictor training are kept).

    Arrival pacing is closed-loop, mirroring what real cores do:

    * compute time — the per-core instruction gaps carried by the trace,
      scaled by CPI and divided across the merged streams;
    * stall feedback — each read's latency throttles subsequent issue by
      ``latency / (mlp * streams)``, the aggregate of the per-core
      blocking the interval core model applies; and
    * ``window`` caps in-flight requests (MSHR backpressure), stalling
      issue until the *earliest-completing* outstanding request retires
      (no head-of-line blocking on a slow miss).

    Without the stall feedback an intensive mix would offer load far
    beyond what its cores could generate once they start missing, and
    every scheme would drown in queueing that the paper's closed-loop
    GEM5 cores never produce.
    """
    if isinstance(records, TraceChunk):
        records = (records,)
    elif isinstance(records, MultiProgramTrace):
        records = records.merged_chunks()
    kwargs = dict(
        window=window,
        min_gap=min_gap,
        cycles_per_instruction=cycles_per_instruction,
        streams=streams,
        mlp=mlp,
        warmup=warmup,
    )
    # Observability tap: one guard per *drive* (tens of thousands of
    # records), never per record — the disabled path is the exact
    # pre-instrumentation code, so results and throughput are untouched.
    tracer = get_tracer()
    if tracer.enabled:
        start = time.perf_counter()
        result = _drive_fast(cache, records, **kwargs)
        _tap_drive(tracer, cache, result, time.perf_counter() - start)
        return result
    return _drive_fast(cache, records, **kwargs)


def _tap_drive(tracer, cache: DRAMCacheBase, result: DriveResult, wall: float) -> None:
    """Report one finished drive to the tracer and metrics registry.

    Pull-based: copies counters the simulation already maintains, so
    enabling tracing cannot perturb results (asserted by the
    byte-identity tests and the perfbench ``traced`` mode).
    """
    per_sec = result.accesses / wall if wall > 0 else 0.0
    tracer.emit(
        "point",
        "drive",
        scheme=getattr(cache, "name", "?"),
        records=result.accesses,
        wall_s=round(wall, 6),
        records_per_sec=round(per_sec, 1),
        end_time=result.end_time,
        hit_rate=result.stats.get("hit_rate"),
        stack_rbh=result.stats.get("stack_rbh"),
    )
    registry = get_metrics()
    registry.add("drive.count")
    registry.add("drive.records", result.accesses)
    registry.observe("drive.wall_s", wall)
    registry.observe("drive.records_per_sec", per_sec)
    cache.report_metrics(registry)


def run_scheme_on_mix(
    scheme: str,
    mix_name: str,
    *,
    setup: ExperimentSetup | None = None,
    bimodal_config: BiModalConfig | None = None,
    window: int = 16,
    warmup_fraction: float = 0.5,
) -> DriveResult:
    """Build scheme + mix trace, drive to completion, return the result."""
    setup = setup or ExperimentSetup()
    if mix_name not in setup.mixes():
        raise ValueError(
            f"unknown mix {mix_name!r} for {setup.num_cores} cores"
        )
    system = setup.system
    total = setup.accesses_per_core * setup.num_cores
    tracer = get_tracer()
    with tracer.span(
        "cell", scheme=scheme, mix=mix_name, cores=setup.num_cores,
        seed=setup.seed,
    ) as span:
        timer = SectionTimer()
        with timer.section("build"):
            cache = build_cache(
                scheme,
                system,
                bimodal_config=bimodal_config,
                scale=setup.scale,
                adaptation_interval=max(1_000, total // 150),
            )
        with timer.section("trace"):
            records = setup.trace_records(mix_name)
        with timer.section("drive"):
            result = drive_cache(
                cache,
                records,
                window=window,
                streams=setup.num_cores,
                warmup=int(total * warmup_fraction),
            )
        if tracer.enabled:
            span.update(timer.as_attrs())
            span["records"] = result.accesses
            span["hit_rate"] = result.stats.get("hit_rate")
    return result
