"""Figure 10: fraction of accesses served by small blocks, per mix.

Paper: wide adaptation range — Q17 directs only 1% of accesses to small
blocks while Q23 directs 48% — evidence that the bi-modal organization
tailors itself to workload spatial behaviour.
"""

from repro.harness.experiments import fig10_small_block_fraction
from repro.harness.runner import ExperimentSetup

SMALLFRAC_MIXES = ["Q2", "Q7", "Q17", "Q19", "Q23"]


def test_fig10_small_block_fraction(benchmark, report):
    # Adaptation (tracker training + global-state drift + set
    # conversions) needs run length: use a longer quota than the other
    # quad benchmarks.
    setup = ExperimentSetup(num_cores=4, accesses_per_core=50_000, seed=1)
    rows = benchmark.pedantic(
        lambda: fig10_small_block_fraction(setup=setup, mix_names=SMALLFRAC_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 10: small-block access fraction")
    by_mix = {r["mix"]: r["small_fraction"] for r in rows}
    # Dense mixes barely use small blocks (paper: Q17 at 1%).
    assert by_mix["Q17"] < 0.05
    assert by_mix["Q2"] < 0.10
    # Sparse mixes lean heavily on small blocks (paper: Q23 at 48%).
    assert by_mix["Q23"] > 0.15
    assert by_mix["Q23"] == max(by_mix.values())
    # Wide adaptation range across the population.
    assert max(by_mix.values()) - min(by_mix.values()) > 0.15
