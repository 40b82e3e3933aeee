"""Latency experiments: Figure 3 (breakdown) and Figure 8(c) (averages).

Figure 3 is reproduced analytically from the timing configuration — the
paper's own figure is a schematic of the latency components per scheme —
while Figure 8(c) is measured from timed runs of every organization.
"""

from __future__ import annotations

from repro.common.config import DRAMTimingConfig
from repro.common.tables import TAG_STORE_LATENCY
from repro.harness.parallel import GridCell, complete_groups, drive_cell, run_grid
from repro.harness.runner import ExperimentSetup
from repro.workloads.mixes import mixes_for_cores

__all__ = ["fig3_latency_breakdown", "fig8c_access_latency", "LATENCY_SCHEMES"]

LATENCY_SCHEMES = ("alloy", "lohhill", "atcache", "footprint", "fixed512", "bimodal")


def fig3_latency_breakdown(
    *, timing: DRAMTimingConfig | None = None
) -> list[dict]:
    """Figure 3: uncontended hit-path latency composition per scheme.

    Components (CPU cycles): SRAM structure lookups, row activation
    (ACT includes any needed PRE in the worst case shown), column access
    (CL) and data transfer, plus tag-compare cycles. Each row is one of
    the paper's schematic cases.
    """
    t = timing or DRAMTimingConfig.stacked()
    act = t.trcd
    pre = t.trp
    cl = t.cl
    xfer64 = t.burst_cycles
    rows = [
        {
            "scheme": "AlloyCache",
            "case": "row closed",
            "sram": 1,  # MAP predictor
            "dram_core": act + cl,
            "transfer": 5,  # 72B TAD burst
            "compare": 1,
            "total": 1 + act + cl + 5 + 1,
        },
        {
            "scheme": "Footprint Cache",
            "case": "tags-in-SRAM hit",
            "sram": TAG_STORE_LATENCY[1 << 20],  # >=1MB tag store
            "dram_core": act + cl,
            "transfer": xfer64,
            "compare": 0,
            "total": TAG_STORE_LATENCY[1 << 20] + act + cl + xfer64,
        },
        {
            "scheme": "ATCache",
            "case": "tag-cache hit",
            "sram": 2,
            "dram_core": act + cl,
            "transfer": xfer64,
            "compare": 0,
            "total": 2 + act + cl + xfer64,
        },
        {
            "scheme": "ATCache",
            "case": "tag-cache miss",
            "sram": 2,
            "dram_core": act + cl + cl,  # tag read then data column
            "transfer": 2 * xfer64 + xfer64,
            "compare": 1,
            "total": 2 + act + cl + 2 * xfer64 + 1 + cl + xfer64,
        },
        {
            "scheme": "BiModal",
            "case": "way locator hit",
            "sram": 1,
            "dram_core": act + cl,
            "transfer": xfer64,
            "compare": 1,  # 2-way locator compare folded into lookup
            "total": 1 + act + cl + xfer64 + 1,
        },
        {
            "scheme": "BiModal",
            "case": "loc. miss, tag row hit",
            "sram": 1,
            # metadata column read (row hit) in parallel with data ACT;
            # data column issues after the 18-way compare.
            "dram_core": max(cl + 2 * xfer64 + 1, act) + cl,
            "transfer": xfer64,
            "compare": 1,
            "total": 1 + max(cl + 2 * xfer64 + 1, act) + cl + xfer64,
        },
        {
            "scheme": "BiModal",
            "case": "loc. miss, tag row miss",
            "sram": 1,
            "dram_core": max(pre + act + cl + 2 * xfer64 + 1, act) + cl,
            "transfer": xfer64,
            "compare": 1,
            "total": 1 + max(pre + act + cl + 2 * xfer64 + 1, act) + cl + xfer64,
        },
        {
            "scheme": "Loh-Hill",
            "case": "compound access",
            "sram": 0,
            "dram_core": act + cl + cl,  # tags then data, same open row
            "transfer": 2 * xfer64 + xfer64,
            "compare": 1,
            "total": act + cl + 2 * xfer64 + 1 + cl + xfer64,
        },
    ]
    return rows


def fig8c_access_latency(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    schemes: tuple[str, ...] = LATENCY_SCHEMES,
    jobs: int = 1,
) -> list[dict]:
    """Figure 8(c): average LLSC miss penalty per scheme.

    The paper reports Bi-Modal achieving a 22.9% lower average access
    latency than AlloyCache, 12% lower than Footprint Cache and 26.5%
    lower than ATCache.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    cells = [
        GridCell(scheme=scheme, mix=name, setup=setup)
        for name in names
        for scheme in schemes
    ]
    stats = run_grid(drive_cell, cells, jobs=jobs)
    rows = []
    for name, chunk in complete_groups(names, stats, len(schemes)):
        row: dict = {"mix": name}
        for scheme, cell_stats in zip(schemes, chunk):
            row[scheme] = cell_stats["avg_read_latency"]
        rows.append(row)
    if rows:
        avg: dict = {"mix": "mean"}
        for scheme in schemes:
            avg[scheme] = sum(r[scheme] for r in rows) / len(rows)
        for scheme in schemes:
            if scheme != "bimodal" and avg[scheme]:
                avg_key = f"bimodal_vs_{scheme}"
                avg[avg_key] = (avg[scheme] - avg["bimodal"]) / avg[scheme]
        rows.append(avg)
    return rows
