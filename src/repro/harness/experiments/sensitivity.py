"""Figure 12 sensitivity study and the ablations beyond the paper.

``BiModal(X-Y-Z)`` in the paper's notation: cache size X, big block size
Y, big-block associativity Z. All improvements are over a same-sized
AlloyCache. Capacities are expressed at paper scale and shifted by the
experiment's capacity scale factor.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bimodal.cache import BiModalConfig
from repro.cores.metrics import improvement_percent
from repro.harness.parallel import (
    AnttCell,
    GridCell,
    antt_cell,
    complete_groups,
    drive_cell,
    run_grid,
)
from repro.harness.runner import ExperimentSetup, scaled_locator_bits

__all__ = [
    "fig12_sensitivity",
    "ablation_threshold",
    "ablation_weight",
    "ablation_sampling",
    "ablation_parallel_tag",
]


def fig12_sensitivity(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Figure 12: gains hold across cache size, block size, associativity.

    Paper configurations (at full scale): BiModal(64M-512-4),
    BiModal(512M-512-4), BiModal(128M-256-8), BiModal(128M-1024-2) and an
    8-way variant via a 4 KB set; each vs a same-sized AlloyCache.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or ["Q2", "Q7", "Q12", "Q20"]
    k = scaled_locator_bits(scale=setup.scale)
    base_cfg = BiModalConfig(
        locator_index_bits=k,
        predictor_index_bits=10,
        tracker_sample_every=2,
        adaptation_interval=2_000,
    )
    paper_cache_mb = setup.system.dram_cache.capacity >> 20  # already scaled

    variants = [
        # (label, scaled cache MB, config tweak)
        ("BiModal(64M-512-4)", max(1, paper_cache_mb // 2), base_cfg),
        ("BiModal(128M-512-4)", paper_cache_mb, base_cfg),
        ("BiModal(512M-512-4)", paper_cache_mb * 4, base_cfg),
        (
            "BiModal(128M-256-8)",
            paper_cache_mb,
            replace(base_cfg, big_block_size=256),
        ),
        (
            "BiModal(128M-1024-2)",
            paper_cache_mb,
            replace(base_cfg, big_block_size=1024),
        ),
        (
            "BiModal(128M-512-8)",
            paper_cache_mb,
            replace(base_cfg, set_size=4096),
        ),
    ]
    cells = []
    for _, cache_mb, cfg in variants:
        for name in names:
            cells.append(
                AnttCell(scheme="alloy", mix=name, setup=setup, cache_mb=cache_mb)
            )
            cells.append(
                AnttCell(
                    scheme="bimodal",
                    mix=name,
                    setup=setup,
                    cache_mb=cache_mb,
                    bimodal_config=cfg,
                )
            )
    antts = run_grid(antt_cell, cells, jobs=jobs)
    rows = []
    per_variant = 2 * len(names)
    for (label, cache_mb, _), chunk in complete_groups(
        variants, antts, per_variant
    ):
        gains = [
            improvement_percent(chunk[2 * i], chunk[2 * i + 1])
            for i in range(len(names))
        ]
        rows.append(
            {
                "config": label,
                "scaled_cache_mb": cache_mb,
                "mean_antt_gain_pct": sum(gains) / len(gains),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablations beyond the paper (DESIGN.md section 5)
# ----------------------------------------------------------------------
def _bimodal_cell(
    mix_name: str, setup: ExperimentSetup, cfg: BiModalConfig
) -> GridCell:
    return GridCell(scheme="bimodal", mix=mix_name, setup=setup, bimodal_config=cfg)


def _base_config(setup: ExperimentSetup) -> BiModalConfig:
    return BiModalConfig(
        locator_index_bits=scaled_locator_bits(scale=setup.scale),
        predictor_index_bits=10,
        tracker_sample_every=2,
        adaptation_interval=2_000,
    )


def _sweep(
    setup: ExperimentSetup | None,
    mix_names: list[str] | None,
    field: str,
    values: tuple,
    jobs: int,
) -> list[tuple]:
    """``(mix, value, stats)`` for every bimodal cell of a one-knob sweep.

    One cell per (mix, value) with ``field`` of the base configuration
    set to the value; a failed cell drops only its own row.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or ["Q7"]
    base = _base_config(setup)
    keys = [(name, value) for name in names for value in values]
    cells = [
        _bimodal_cell(name, setup, replace(base, **{field: value}))
        for name, value in keys
    ]
    results = run_grid(drive_cell, cells, jobs=jobs)
    return [
        (name, value, stats)
        for (name, value), (stats,) in complete_groups(keys, results, 1)
    ]


def ablation_threshold(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    thresholds: tuple[int, ...] = (2, 3, 5, 7, 8),
    jobs: int = 1,
) -> list[dict]:
    """Utilization threshold T sweep (paper fixes T=5, suggests stricter
    T trades bandwidth for hit rate)."""
    return [
        {
            "mix": name,
            "T": t,
            "hit_rate": stats["hit_rate"],
            "offchip_mb": stats["offchip_fetched_bytes"] / (1 << 20),
            "small_fraction": stats["small_access_fraction"],
        }
        for name, t, stats in _sweep(
            setup, mix_names, "utilization_threshold", thresholds, jobs
        )
    ]


def ablation_weight(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    weights: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.5),
    jobs: int = 1,
) -> list[dict]:
    """Adaptation weight W sweep (paper fixes W=0.75)."""
    return [
        {
            "mix": name,
            "W": w,
            "hit_rate": stats["hit_rate"],
            "small_fraction": stats["small_access_fraction"],
            "global_state": str(stats["global_state"]),
        }
        for name, w, stats in _sweep(
            setup, mix_names, "adaptation_weight", weights, jobs
        )
    ]


def ablation_sampling(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    rates: tuple[int, ...] = (1, 2, 8, 32),
    jobs: int = 1,
) -> list[dict]:
    """Tracker set-sampling sweep (paper uses ~4% of sets)."""
    return [
        {
            "mix": name,
            "sample_every": every,
            "hit_rate": stats["hit_rate"],
            "predictor_accuracy": stats["predictor_accuracy"],
            "small_fraction": stats["small_access_fraction"],
        }
        for name, every, stats in _sweep(
            setup, mix_names, "tracker_sample_every", rates, jobs
        )
    ]


def ablation_parallel_tag(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Parallel vs serial tag+data issue on way locator misses."""
    setup = setup or ExperimentSetup()
    names = mix_names or ["Q2", "Q7"]
    modes = (("parallel", True), ("serial", False))
    cells = [
        _bimodal_cell(
            name, setup, replace(_base_config(setup), parallel_tag_data=parallel)
        )
        for name in names
        for _, parallel in modes
    ]
    results = run_grid(drive_cell, cells, jobs=jobs)
    rows = []
    for name, chunk in complete_groups(names, results, len(modes)):
        res = {
            label: stats["avg_read_latency"]
            for (label, _), stats in zip(modes, chunk)
        }
        rows.append(
            {
                "mix": name,
                "parallel_latency": res["parallel"],
                "serial_latency": res["serial"],
                "saving_pct": 100.0
                * (res["serial"] - res["parallel"])
                / res["serial"]
                if res["serial"]
                else 0.0,
            }
        )
    return rows
