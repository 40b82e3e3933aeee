"""Figure 11: off-chip + DRAM cache energy savings of Bi-Modal."""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.model import EnergyModel
from repro.harness.parallel import complete_groups, run_grid
from repro.harness.reporting import append_mean_row
from repro.harness.runner import ExperimentSetup, run_scheme_on_mix
from repro.workloads.mixes import mixes_for_cores

__all__ = ["fig11_energy"]


@dataclass(frozen=True)
class _EnergyCell:
    mix: str
    setup: ExperimentSetup


def _energy_row(cell: _EnergyCell) -> dict:
    """Run alloy + bimodal on one mix and report the energy comparison."""
    model = EnergyModel()
    base = run_scheme_on_mix(
        "alloy", cell.mix, setup=cell.setup, warmup_fraction=0.5
    )
    bi = run_scheme_on_mix(
        "bimodal", cell.mix, setup=cell.setup, warmup_fraction=0.5
    )
    e_base = model.measure(base.cache, base.cache.offchip)
    e_bi = model.measure(bi.cache, bi.cache.offchip)
    return {
        "mix": cell.mix,
        "alloy_uj": e_base.total / 1000.0,
        "bimodal_uj": e_bi.total / 1000.0,
        "offchip_saving_pct": 100.0
        * (e_base.offchip_total - e_bi.offchip_total)
        / e_base.offchip_total
        if e_base.offchip_total
        else 0.0,
        "total_saving_pct": model.savings_percent(e_base, e_bi),
    }


def fig11_energy(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 11: memory energy reduction over AlloyCache.

    Paper averages: 14.9% (4-core), 11.8% (8-core), 12.4% (16-core).
    The savings come from higher DRAM cache hit rates (fewer off-chip
    activations) and better off-chip spatial locality, against the
    baseline's activation-heavy 64 B miss traffic. Measured post-warmup
    (the adapted steady state the paper's long runs report).
    """
    setup = setup or ExperimentSetup(num_cores=8)
    names = mix_names or list(mixes_for_cores(setup.num_cores))
    cells = [_EnergyCell(mix=name, setup=setup) for name in names]
    results = run_grid(_energy_row, cells, jobs=jobs)
    rows = [row for _, (row,) in complete_groups(names, results, 1)]
    return append_mean_row(rows)
