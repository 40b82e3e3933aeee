"""Figure 7: ANTT improvement of Bi-Modal over AlloyCache.

Paper averages: 10.8% (4-core), 13.8% (8-core), 14.0% (16-core). The
benchmark reproduces the 4-core series on a representative mix subset;
the experiment function accepts the full mix lists for complete sweeps.
"""

from repro.harness.experiments import fig7_antt
from repro.harness.runner import ExperimentSetup

ANTT_MIXES = ["Q2", "Q5", "Q7", "Q12", "Q17", "Q20", "Q23"]


def test_fig7_antt_quad_core(benchmark, report):
    # ANTT needs steady-state measurement: longer per-core quotas than
    # the other quad benchmarks (the runner warm-up covers half the run).
    setup = ExperimentSetup(num_cores=4, accesses_per_core=25_000, seed=1)
    rows = benchmark.pedantic(
        lambda: fig7_antt(setup=setup, mix_names=ANTT_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 7: ANTT improvement over AlloyCache (4-core)")
    mean = rows[-1]
    assert mean["mix"] == "mean"
    # Both are valid ANTTs (>= 1) and Bi-Modal improves on average —
    # strongly on dense mixes; our synthetic ultra-sparse mixes give a
    # small regression (see EXPERIMENTS.md), so the mean sits below the
    # paper's +10.8% but stays clearly positive.
    assert mean["alloy"] >= 1.0
    assert mean["bimodal"] >= 1.0
    assert mean["improvement_pct"] > 1.5
    by_mix = {r["mix"]: r["improvement_pct"] for r in rows[:-1]}
    assert by_mix["Q2"] > 8.0  # dense mixes reproduce the paper's gains
