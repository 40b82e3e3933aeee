"""Figure 8(a): component analysis — Bi-Modal-Only and Way-Locator-Only.

Paper: both components independently deliver ANTT gains over AlloyCache
on 8-core workloads, and the full design captures both.
"""

from repro.harness.experiments import fig8a_component_analysis
from repro.harness.runner import ExperimentSetup

COMPONENT_MIXES = ["E1", "E4"]


def test_fig8a_components(benchmark, report):
    setup = ExperimentSetup(
        num_cores=8, scale=32, accesses_per_core=12_000, seed=1
    )
    rows = benchmark.pedantic(
        lambda: fig8a_component_analysis(setup=setup, mix_names=COMPONENT_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 8a: ANTT gain over Alloy by component (8-core)")
    mean = rows[-1]
    assert mean["mix"] == "mean"
    # The full design delivers a positive gain and is never worse than
    # the way-locator component alone. (Bi-Modal-Only — tags in DRAM on
    # every access, no locator — is heavily penalized by our in-order
    # bank service; see EXPERIMENTS.md for the known deviation.)
    assert mean["bimodal_pct"] > 0.0
    assert mean["bimodal_pct"] >= mean["wayloc-only_pct"] - 3.0
