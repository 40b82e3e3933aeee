"""Extension studies beyond the paper's evaluation section.

* **Victim-buffer study** — quantifies the Related-Work claim that a
  victim cache would help little at the DRAM cache level ("very little
  temporal reuse" of evicted blocks).
* **Controller comparison** — the paper's demand-ratio global adaptation
  vs the set-dueling election it cites; measures agreement of the
  adapted state and the resulting hit rate / bandwidth.
* **Space utilization** — referenced-bytes / committed-bytes of the
  fixed-512B organization vs the Bi-Modal one (the cache-space
  utilization axis of the paper's design-space study).

Each mix is one parallelizable cell dispatched through
:func:`repro.harness.parallel.run_grid`; under fault collection a failed
cell drops only its own row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bimodal.cache import BiModalConfig
from repro.bimodal.victim import VictimProbeWrapper
from repro.harness.parallel import complete_groups, run_grid
from repro.harness.runner import (
    ExperimentSetup,
    build_cache,
    drive_cache,
    run_scheme_on_mix,
    scaled_locator_bits,
)

__all__ = [
    "victim_buffer_study",
    "controller_comparison",
    "space_utilization_comparison",
]


@dataclass(frozen=True)
class _VictimCell:
    mix: str
    setup: ExperimentSetup
    entries: int


def _victim_row(cell: _VictimCell) -> dict:
    cache = build_cache("bimodal", cell.setup.system, scale=cell.setup.scale)
    wrapper = VictimProbeWrapper(cache, entries=cell.entries)
    drive_cache(
        wrapper, cell.setup.trace_records(cell.mix), streams=cell.setup.num_cores
    )
    return {
        "mix": cell.mix,
        "misses": cache.hit_stat.misses,
        "victim_hits": wrapper.buffer.probe_hits,
        "victim_hit_fraction": wrapper.victim_hit_fraction,
    }


def victim_buffer_study(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    entries: int = 512,
    jobs: int = 1,
) -> list[dict]:
    """Fraction of DRAM cache misses a victim buffer would serve.

    The paper found "very little benefit"; the expected shape is a small
    victim-hit fraction across mixes (each such hit would save one
    off-chip fetch at best).
    """
    setup = setup or ExperimentSetup()
    names = mix_names or ["Q2", "Q7", "Q17", "Q23"]
    cells = [_VictimCell(mix=name, setup=setup, entries=entries) for name in names]
    results = run_grid(_victim_row, cells, jobs=jobs)
    rows = [row for _, (row,) in complete_groups(names, results, 1)]
    if rows:
        total_m = sum(r["misses"] for r in rows)
        total_h = sum(r["victim_hits"] for r in rows)
        rows.append(
            {
                "mix": "total",
                "misses": total_m,
                "victim_hits": total_h,
                "victim_hit_fraction": total_h / total_m if total_m else 0.0,
            }
        )
    return rows


@dataclass(frozen=True)
class _ControllerCell:
    mix: str
    setup: ExperimentSetup


def _controller_row(cell: _ControllerCell) -> dict:
    k = scaled_locator_bits(scale=cell.setup.scale)
    row: dict = {"mix": cell.mix}
    for controller in ("demand", "dueling"):
        cfg = BiModalConfig(
            locator_index_bits=k,
            predictor_index_bits=12,
            tracker_sample_every=1,
            adaptation_interval=2_000,
            controller=controller,
        )
        stats = run_scheme_on_mix(
            "bimodal", cell.mix, setup=cell.setup, bimodal_config=cfg
        ).stats
        row[f"{controller}_hit"] = stats["hit_rate"]
        row[f"{controller}_state"] = str(stats["global_state"])
        row[f"{controller}_offchip_mb"] = stats["offchip_fetched_bytes"] / (
            1 << 20
        )
    return row


def controller_comparison(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Demand-ratio (paper) vs set-dueling (cited) global adaptation."""
    setup = setup or ExperimentSetup()
    names = mix_names or ["Q2", "Q7", "Q23"]
    cells = [_ControllerCell(mix=name, setup=setup) for name in names]
    results = run_grid(_controller_row, cells, jobs=jobs)
    return [row for _, (row,) in complete_groups(names, results, 1)]


@dataclass(frozen=True)
class _SpaceCell:
    mix: str
    setup: ExperimentSetup


def _space_row(cell: _SpaceCell) -> dict:
    row: dict = {"mix": cell.mix}
    for scheme in ("fixed512", "bimodal"):
        result = run_scheme_on_mix(scheme, cell.mix, setup=cell.setup)
        row[f"{scheme}_space_util"] = result.cache.space_utilization()
    row["gain"] = row["bimodal_space_util"] - row["fixed512_space_util"]
    return row


def space_utilization_comparison(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Referenced/committed bytes: fixed-512B vs Bi-Modal.

    Bi-modality exists to close exactly this gap (Section II-B's
    block-internal fragmentation argument).
    """
    setup = setup or ExperimentSetup()
    names = mix_names or ["Q2", "Q7", "Q23"]
    cells = [_SpaceCell(mix=name, setup=setup) for name in names]
    results = run_grid(_space_row, cells, jobs=jobs)
    return [row for _, (row,) in complete_groups(names, results, 1)]
