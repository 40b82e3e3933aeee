"""Table VI: ANTT gain over a prefetch-enabled AlloyCache baseline.

Paper (quad-core): N=1 -> 9.8% (PREF_NORMAL) / 10.4% (PREF_BYPASS);
N=3 -> 8.7% / 9.3%. Shape: gains survive prefetching; bypass is slightly
ahead of normal; the aggressive prefetcher narrows the margin.
"""

from repro.harness.experiments import table6_prefetch
from repro.harness.runner import ExperimentSetup

PREFETCH_MIXES = ["Q2", "Q12", "Q20"]


def test_table6_prefetch(benchmark, report):
    setup = ExperimentSetup(num_cores=4, accesses_per_core=10_000, seed=1)
    rows = benchmark.pedantic(
        lambda: table6_prefetch(setup=setup, mix_names=PREFETCH_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Table VI: ANTT gain over prefetch-enabled baseline")
    by_n = {r["N"]: r for r in rows}
    # Bi-Modal's benefit holds under both prefetch degrees.
    assert by_n[1]["pref_normal_pct"] > 0.0
    assert by_n[3]["pref_normal_pct"] > 0.0
    assert by_n[1]["pref_bypass_pct"] > 0.0
