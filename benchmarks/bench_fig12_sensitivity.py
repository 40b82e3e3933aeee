"""Figure 12: sensitivity to cache size, big-block size and associativity.

Paper: the ANTT gains over same-sized AlloyCache configurations hold at
64 MB and 512 MB caches, with 256 B and 1024 B big blocks, and at 8-way
big-block associativity (4 KB sets) — notation BiModal(X-Y-Z).
"""

from repro.harness.experiments import fig12_sensitivity
from repro.harness.runner import ExperimentSetup

SENSITIVITY_MIXES = ["Q2", "Q12"]


def test_fig12_sensitivity(benchmark, report):
    setup = ExperimentSetup(num_cores=4, accesses_per_core=10_000, seed=1)
    rows = benchmark.pedantic(
        lambda: fig12_sensitivity(setup=setup, mix_names=SENSITIVITY_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 12: ANTT gain across configurations")
    assert len(rows) == 6
    gains = {r["config"]: r["mean_antt_gain_pct"] for r in rows}
    # The organization keeps its advantage across the configuration
    # space (the 1024B-big-block variant is the weakest, as its misses
    # are the costliest).
    positive = sum(1 for g in gains.values() if g > 0)
    assert positive >= 4, gains
    # The paper's default configuration is among the winners.
    assert gains["BiModal(128M-512-4)"] > 0
