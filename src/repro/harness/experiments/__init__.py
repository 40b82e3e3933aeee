"""One entry point per paper table/figure (see DESIGN.md experiment index)."""

from repro.harness.experiments.bandwidth import (
    fig9a_wasted_bandwidth,
    fig9b_metadata_rbh,
    fig9c_way_locator_hit_rate,
    fig10_small_block_fraction,
)
from repro.harness.experiments.design_space import (
    fig1_miss_rate_vs_block_size,
    fig2_block_utilization,
    fig5_mru_hits,
)
from repro.harness.experiments.energy import fig11_energy
from repro.harness.experiments.extensions import (
    controller_comparison,
    space_utilization_comparison,
    victim_buffer_study,
)
from repro.harness.experiments.latency import (
    LATENCY_SCHEMES,
    fig3_latency_breakdown,
    fig8c_access_latency,
)
from repro.harness.experiments.performance import (
    fig7_antt,
    fig8a_component_analysis,
    fig8b_hit_rate,
)
from repro.harness.experiments.prefetch import table6_prefetch
from repro.harness.experiments.sensitivity import (
    ablation_parallel_tag,
    ablation_sampling,
    ablation_threshold,
    ablation_weight,
    fig12_sensitivity,
)
from repro.harness.experiments.tables import (
    table1_feature_matrix,
    table3_way_locator_storage,
)

__all__ = [
    "fig1_miss_rate_vs_block_size",
    "fig2_block_utilization",
    "fig3_latency_breakdown",
    "fig5_mru_hits",
    "fig7_antt",
    "fig8a_component_analysis",
    "fig8b_hit_rate",
    "fig8c_access_latency",
    "fig9a_wasted_bandwidth",
    "fig9b_metadata_rbh",
    "fig9c_way_locator_hit_rate",
    "fig10_small_block_fraction",
    "fig11_energy",
    "fig12_sensitivity",
    "table1_feature_matrix",
    "table3_way_locator_storage",
    "table6_prefetch",
    "ablation_parallel_tag",
    "ablation_sampling",
    "ablation_threshold",
    "ablation_weight",
    "controller_comparison",
    "space_utilization_comparison",
    "victim_buffer_study",
    "LATENCY_SCHEMES",
]
