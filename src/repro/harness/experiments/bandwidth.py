"""Bandwidth and row-buffer experiments: Figures 9(a), 9(b), 9(c), 10.

Every (scheme/config, mix) run is an independent cell dispatched via
:func:`repro.harness.parallel.run_grid`; results are assembled back in
grid order, so parallel and serial invocations produce identical rows.
Row assembly goes through
:func:`~repro.harness.parallel.complete_groups`, so a permanently
failed cell under fault collection drops only its own mix's row.
"""

from __future__ import annotations

from repro.harness.parallel import GridCell, complete_groups, drive_cell, run_grid
from repro.harness.reporting import append_mean_row
from repro.harness.runner import ExperimentSetup, scaled_locator_bits
from repro.bimodal.cache import BiModalConfig
from repro.workloads.mixes import mixes_for_cores

__all__ = [
    "fig9a_wasted_bandwidth",
    "fig9b_metadata_rbh",
    "fig9c_way_locator_hit_rate",
    "fig10_small_block_fraction",
]


def fig9a_wasted_bandwidth(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 9(a): wasted off-chip bytes, fixed-512B vs Bi-Modal.

    The paper reports savings of 67%/62%/71% (4/8/16-core averages) from
    bi-modality; workloads that wasted the most (E8, E12, E14, E15)
    benefit most. Measured post-warmup (steady state), matching the
    paper's fast-forward protocol.
    """
    setup = setup or ExperimentSetup(num_cores=8)
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    schemes = ("fixed512", "bimodal")
    cells = [
        GridCell(scheme=scheme, mix=name, setup=setup, warmup_fraction=0.5)
        for name in names
        for scheme in schemes
    ]
    stats = run_grid(drive_cell, cells, jobs=jobs)
    rows = []
    for name, (fixed, bimodal) in complete_groups(names, stats, 2):
        fixed_waste = fixed["offchip_wasted_bytes"]
        bi_waste = bimodal["offchip_wasted_bytes"]
        saving = (fixed_waste - bi_waste) / fixed_waste if fixed_waste else 0.0
        rows.append(
            {
                "mix": name,
                "fixed512_wasted_mb": fixed_waste / (1 << 20),
                "bimodal_wasted_mb": bi_waste / (1 << 20),
                "saving_pct": 100.0 * saving,
            }
        )
    if rows:
        total_fixed = sum(r["fixed512_wasted_mb"] for r in rows)
        total_bi = sum(r["bimodal_wasted_mb"] for r in rows)
        rows.append(
            {
                "mix": "total",
                "fixed512_wasted_mb": total_fixed,
                "bimodal_wasted_mb": total_bi,
                "saving_pct": 100.0 * (total_fixed - total_bi) / total_fixed
                if total_fixed
                else 0.0,
            }
        )
    return rows


def fig9b_metadata_rbh(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 9(b): metadata row-buffer hit rate, separate vs co-located.

    Measured on the full Bi-Modal configuration: with the way locator
    deployed, DRAM tag reads are locator-miss events, and it is exactly
    those scattered reads whose row-buffer behaviour the dense metadata
    bank improves (16 sets per open metadata page vs 1 for co-located
    tags). The paper reports a 37% average RBH improvement.

    Known deviation: absolute RBH values are pessimistic here because
    the access-granularity model serves bank requests in arrival order —
    a real FR-FCFS controller batches same-row tag reads from different
    cores that our model interleaves. The separate-vs-co-located
    *relative* advantage is what this experiment reproduces.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    k = scaled_locator_bits(scale=setup.scale)
    layouts = (("separate", False), ("colocated", True))
    cells = []
    for name in names:
        for _, colocated in layouts:
            cfg = BiModalConfig(
                locator_index_bits=k,
                predictor_index_bits=10,
                tracker_sample_every=2,
                adaptation_interval=2_000,
                colocated_metadata=colocated,
                parallel_tag_data=not colocated,
            )
            cells.append(
                GridCell(scheme="bimodal", mix=name, setup=setup, bimodal_config=cfg)
            )
    stats = run_grid(drive_cell, cells, jobs=jobs)
    rows = []
    for name, chunk in complete_groups(names, stats, len(layouts)):
        results = {
            label: cell_stats["metadata_rbh"]
            for (label, _), cell_stats in zip(layouts, chunk)
        }
        gain = (
            (results["separate"] - results["colocated"]) / results["colocated"]
            if results["colocated"]
            else 0.0
        )
        rows.append(
            {
                "mix": name,
                "colocated_rbh": results["colocated"],
                "separate_rbh": results["separate"],
                "gain_pct": 100.0 * gain,
            }
        )
    return append_mean_row(rows)


def fig9c_way_locator_hit_rate(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    k_values: tuple[int, ...] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 9(c): way locator hit rate vs table size K.

    K values are expressed at paper scale (10/12/14/16) and shifted by
    the capacity scale; the paper finds K=14 the sweet spot (~95% hit
    rate on quad-core workloads).
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    paper_ks = k_values or (10, 12, 14, 16)
    cells = []
    for name in names:
        for paper_k in paper_ks:
            k = scaled_locator_bits(paper_k, setup.scale)
            cfg = BiModalConfig(
                locator_index_bits=k,
                predictor_index_bits=10,
                tracker_sample_every=2,
                adaptation_interval=2_000,
            )
            cells.append(
                GridCell(scheme="bimodal", mix=name, setup=setup, bimodal_config=cfg)
            )
    stats = run_grid(drive_cell, cells, jobs=jobs)
    rows = []
    for name, chunk in complete_groups(names, stats, len(paper_ks)):
        row: dict = {"mix": name}
        for paper_k, cell_stats in zip(paper_ks, chunk):
            row[f"K{paper_k}"] = cell_stats["way_locator_hit_rate"]
        rows.append(row)
    return append_mean_row(rows)


def fig10_small_block_fraction(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 10: fraction of accesses served by small blocks.

    The paper sees wide variation — 1% (Q17) to 48% (Q23) — showing the
    organization adapts to workload spatial behaviour.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    cells = [GridCell(scheme="bimodal", mix=name, setup=setup) for name in names]
    stats = run_grid(drive_cell, cells, jobs=jobs)
    return [
        {
            "mix": name,
            "small_fraction": cell_stats["small_access_fraction"],
            "global_state": str(cell_stats["global_state"]),
        }
        for name, (cell_stats,) in complete_groups(names, stats, 1)
    ]
