"""Figure 8(b): DRAM cache hit rates — Alloy vs fixed-512B vs Bi-Modal.

Paper: fixed 512 B blocks gain 29% on average over AlloyCache; Bi-Modal
gains 38% via improved space utilization. The shape we require: both big-
block organizations sit far above the 64 B baseline, and Bi-Modal keeps
nearly all of the fixed-512B hit rate while spending far less bandwidth
(Figure 9a's counterpart).
"""

from conftest import QUAD_MIXES

from repro.harness.experiments import fig8b_hit_rate


def test_fig8b_hit_rate(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: fig8b_hit_rate(setup=quad_setup, mix_names=QUAD_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 8b: DRAM cache hit rate by scheme")
    mean = rows[-1]
    assert mean["mix"] == "mean"
    assert mean["fixed512"] > mean["alloy"] + 0.08
    assert mean["bimodal"] > mean["alloy"] + 0.08
    # Bi-Modal retains at least ~95% of the fixed-512B hit rate.
    assert mean["bimodal"] > 0.94 * mean["fixed512"]
    assert mean["fixed512_gain_pct"] > 0
    assert mean["bimodal_gain_pct"] > 0
