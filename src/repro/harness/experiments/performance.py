"""System-performance experiments: Figure 7, Figure 8(a), Figure 8(b).

ANTT measurements follow the paper's protocol exactly: every program in
the mix runs multiprogrammed, then standalone under the *same* cache
scheme, and ANTT is the mean slowdown. Improvement is reported as the
relative ANTT reduction of Bi-Modal over the AlloyCache baseline.

Each (scheme, mix) measurement is an independent cell dispatched through
:func:`repro.harness.parallel.run_grid`, so figure-level grids fan out
over ``jobs`` workers with results identical to a serial run.
Under fault collection a permanently failed cell drops only its mix's
row (via :func:`~repro.harness.parallel.complete_groups`); the other
rows still export.
"""

from __future__ import annotations

from repro.cores.metrics import improvement_percent
from repro.harness.parallel import (
    AnttCell,
    GridCell,
    antt_cell,
    complete_groups,
    drive_cell,
    run_grid,
)
from repro.harness.reporting import append_mean_row
from repro.harness.runner import ExperimentSetup
from repro.workloads.mixes import mixes_for_cores

__all__ = ["fig7_antt", "fig8a_component_analysis", "fig8b_hit_rate"]


def _fig_antt_cell(scheme: str, mix: str, setup: ExperimentSetup) -> AnttCell:
    """An ANTT cell under the Figure 7 protocol (Figure 8(a) shares it).

    Warm-up covers the first half of each core's accesses, and the
    programs run at the setup's intensity.
    """
    return AnttCell(
        scheme=scheme,
        mix=mix,
        setup=setup,
        warmup_fraction=0.5,
        intensity_scale=setup.intensity_scale,
    )


def fig7_antt(
    *,
    num_cores: int = 4,
    mix_names: list[str] | None = None,
    setup: ExperimentSetup | None = None,
    schemes: tuple[str, str] = ("alloy", "bimodal"),
    jobs: int = 1,
) -> list[dict]:
    """Figure 7: ANTT improvement of Bi-Modal over AlloyCache.

    Paper: 10.8% (4-core), 13.8% (8-core), 14.0% (16-core) on average.
    """
    setup = setup or ExperimentSetup(num_cores=num_cores)
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    baseline_name, improved_name = schemes
    cells = [
        _fig_antt_cell(scheme, name, setup) for name in names for scheme in schemes
    ]
    antts = run_grid(antt_cell, cells, jobs=jobs)
    rows = []
    for name, (base_antt, new_antt) in complete_groups(names, antts, 2):
        rows.append(
            {
                "mix": name,
                baseline_name: base_antt,
                improved_name: new_antt,
                "improvement_pct": improvement_percent(base_antt, new_antt),
            }
        )
    return append_mean_row(rows)


def fig8a_component_analysis(
    *,
    mix_names: list[str] | None = None,
    setup: ExperimentSetup | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 8(a): Bi-Modal-Only and Way-Locator-Only vs the full design.

    Both components independently improve ANTT over AlloyCache; the full
    Bi-Modal cache captures both gains (8-core workloads in the paper).
    """
    setup = setup or ExperimentSetup(num_cores=8)
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    schemes = ("alloy", "bimodal-only", "wayloc-only", "bimodal")
    cells = [
        _fig_antt_cell(scheme, name, setup) for name in names for scheme in schemes
    ]
    antts = run_grid(antt_cell, cells, jobs=jobs)
    rows = []
    for name, chunk in complete_groups(names, antts, len(schemes)):
        per_mix = dict(zip(schemes, chunk))
        row = {"mix": name}
        for s in schemes[1:]:
            row[f"{s}_pct"] = improvement_percent(per_mix["alloy"], per_mix[s])
        rows.append(row)
    return append_mean_row(rows)


def fig8b_hit_rate(
    *,
    mix_names: list[str] | None = None,
    setup: ExperimentSetup | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 8(b): DRAM cache hit rates of Alloy, fixed-512B and Bi-Modal.

    The paper reports average hit-rate gains over AlloyCache of 29%
    (fixed 512 B) and 38% (Bi-Modal, via better space utilization).
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    schemes = ("alloy", "fixed512", "bimodal")
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
            row[scheme] = cell_stats["hit_rate"]
        row["fixed512_gain_pct"] = improvement_percent(
            1 - row["alloy"], 1 - row["fixed512"]
        )
        row["bimodal_gain_pct"] = improvement_percent(
            1 - row["alloy"], 1 - row["bimodal"]
        )
        rows.append(row)
    return append_mean_row(rows)
