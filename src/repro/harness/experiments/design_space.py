"""Design-space experiments: Figures 1, 2 and 5.

These reproduce the paper's Section II motivation studies with the
trace-driven methodology: functional cache simulations over the merged
LLSC-miss streams. Each mix is one parallelizable cell; the merged
record arrays come from the trace cache, so a mix's stream is generated
once and shared by every block size / figure instead of being re-derived
per sweep point.

Figure 1 runs on the MRC engine (:mod:`repro.mrc`): the block-size
sweep is exactly a hit-rate-vs-block-size curve, and the tag-only ghost
pass produces miss rates bit-identical to the old per-block-size
:class:`~repro.sram.cache.SetAssociativeCache` walk (pinned by
tests/harness/test_design_space.py) at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stats import Histogram
from repro.harness.parallel import complete_groups, run_grid
from repro.harness.reporting import append_mean_row
from repro.harness.runner import ExperimentSetup, build_cache, drive_cache
from repro.mrc.engine import MRCSpec, mrc_pass
from repro.sram.cache import SetAssociativeCache
from repro.workloads.mixes import mixes_for_cores

__all__ = [
    "fig1_miss_rate_vs_block_size",
    "fig2_block_utilization",
    "fig5_mru_hits",
]

BLOCK_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class _Fig1Cell:
    mix: str
    setup: ExperimentSetup
    block_sizes: tuple[int, ...]
    associativity: int


def _fig1_row(cell: _Fig1Cell) -> dict:
    capacity = cell.setup.system.dram_cache.capacity
    records = cell.setup.trace_records(cell.mix)
    result = mrc_pass(
        records.addresses,
        MRCSpec(
            block_sizes=cell.block_sizes,
            base_capacity=capacity,
            base_associativity=cell.associativity,
            seed=cell.setup.seed,
        ),
    )
    row: dict = {"mix": cell.mix}
    for point in result.block_size:
        row[f"{point.param}B"] = point.miss_rate
    return row


def fig1_miss_rate_vs_block_size(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    block_sizes: tuple[int, ...] = BLOCK_SIZES,
    associativity: int = 8,
    jobs: int | None = None,
) -> list[dict]:
    """Figure 1: LLSC miss rate falls as DRAM cache block size grows.

    A functional set-associative simulation of the DRAM cache at each
    block size; the paper observes the miss rate *nearly halving* with
    each doubling for most workloads.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    cells = [
        _Fig1Cell(
            mix=name,
            setup=setup,
            block_sizes=tuple(block_sizes),
            associativity=associativity,
        )
        for name in names
    ]
    results = run_grid(_fig1_row, cells, jobs=jobs)
    rows = [row for _, (row,) in complete_groups(names, results, 1)]
    return append_mean_row(rows)


@dataclass(frozen=True)
class _Fig2Cell:
    mix: str
    setup: ExperimentSetup


def _fig2_row(cell: _Fig2Cell) -> dict:
    setup = cell.setup
    cache = build_cache("fixed512", setup.system, scale=setup.scale)
    drive_cache(cache, setup.trace_records(cell.mix), streams=setup.num_cores)
    hist = Histogram()
    hist.buckets.update(cache.utilization_hist.buckets)
    for entry in cache._sets.values():
        for block in entry.big_ways:
            if block is not None and block.utilization:
                hist.add(block.utilization)
    row: dict = {"mix": cell.mix}
    for level in range(1, 9):
        row[f"u{level}"] = hist.fraction(level)
    row["full_frac"] = hist.fraction(8)
    return row


def fig2_block_utilization(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int | None = None,
) -> list[dict]:
    """Figure 2: distribution of 64B sub-block utilization in 512B blocks.

    Runs the fixed-512B organization and histograms the per-block
    utilization observed at eviction plus the final resident blocks —
    i.e. utilization over each block's full residency, as the paper's
    tracker measures it.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    cells = [_Fig2Cell(mix=name, setup=setup) for name in names]
    results = run_grid(_fig2_row, cells, jobs=jobs)
    return [row for _, (row,) in complete_groups(names, results, 1)]


@dataclass(frozen=True)
class _Fig5Cell:
    mix: str
    setup: ExperimentSetup
    associativity: int
    block_size: int


def _fig5_row(cell: _Fig5Cell) -> dict:
    capacity = cell.setup.system.dram_cache.capacity
    cache = SetAssociativeCache(
        capacity, cell.associativity, cell.block_size, track_mru=True
    )
    records = cell.setup.trace_records(cell.mix)
    access = cache.access
    for address, is_write in zip(
        records.addresses.tolist(), records.is_write.tolist()
    ):
        access(address, is_write=is_write)
    hist = cache.mru_hits
    row: dict = {"mix": cell.mix}
    for rank in range(cell.associativity):
        row[f"mru{rank}"] = hist.fraction(rank)
    row["top2"] = hist.cumulative_fraction(1)
    return row


def fig5_mru_hits(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    associativity: int = 8,
    block_size: int = 512,
    jobs: int | None = None,
) -> list[dict]:
    """Figure 5: fraction of cache hits by MRU stack position (8-way).

    The paper finds >94% of hits land on the top-2 MRU ways in 8-core
    workloads — the observation that justifies a 2-entry way locator.
    """
    setup = setup or ExperimentSetup(num_cores=8)
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    cells = [
        _Fig5Cell(
            mix=name, setup=setup, associativity=associativity, block_size=block_size
        )
        for name in names
    ]
    results = run_grid(_fig5_row, cells, jobs=jobs)
    rows = [row for _, (row,) in complete_groups(names, results, 1)]
    return append_mean_row(rows)
