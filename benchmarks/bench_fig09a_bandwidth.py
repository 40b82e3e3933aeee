"""Figure 9(a): wasted off-chip bandwidth — fixed-512B vs Bi-Modal.

Paper: bi-modality removes >60% of the fixed-512B organization's wasted
off-chip traffic on average (67%/62%/71% for 4/8/16 cores), with the
worst-wasting workloads benefiting most.
"""

from repro.harness.experiments import fig9a_wasted_bandwidth
from repro.harness.runner import ExperimentSetup

# The heavy-wastage workloads the paper calls out, plus one mixed mix.
WASTE_MIXES = ["E5", "E8", "E15"]


def test_fig9a_wasted_bandwidth(benchmark, report):
    # Adaptation needs run length for steady-state waste accounting.
    setup = ExperimentSetup(
        num_cores=8, scale=32, accesses_per_core=25_000, seed=1
    )
    rows = benchmark.pedantic(
        lambda: fig9a_wasted_bandwidth(setup=setup, mix_names=WASTE_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 9a: wasted off-chip bandwidth (8-core)")
    total = rows[-1]
    assert total["mix"] == "total"
    assert total["fixed512_wasted_mb"] > 0
    # Substantial aggregate saving from bi-modality (paper: ~62%).
    assert total["saving_pct"] > 35.0
    # Every workload is no worse off.
    for row in rows[:-1]:
        assert row["bimodal_wasted_mb"] <= row["fixed512_wasted_mb"] * 1.05
