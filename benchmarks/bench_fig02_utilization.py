"""Figure 2: distribution of 64 B sub-block utilization in 512 B blocks.

Paper: some workloads (Q2, Q4, Q5) have >90% fully-utilized blocks while
others (Q7, Q8, Q19, Q23) have <30% — the motivation for bi-modality.
"""

from repro.harness.experiments import fig2_block_utilization

DENSE = ["Q2", "Q4", "Q5"]
SPARSE = ["Q7", "Q8", "Q19", "Q23"]


def test_fig2_block_utilization(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: fig2_block_utilization(setup=quad_setup, mix_names=DENSE + SPARSE, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 2: block utilization distribution")
    by_mix = {r["mix"]: r for r in rows}
    for mix in DENSE:
        assert by_mix[mix]["full_frac"] > 0.55, mix
    for mix in SPARSE:
        assert by_mix[mix]["full_frac"] < 0.30, mix
    # the dense and sparse populations are clearly separated
    dense_min = min(by_mix[m]["full_frac"] for m in DENSE)
    sparse_max = max(by_mix[m]["full_frac"] for m in SPARSE)
    assert dense_min > 2 * sparse_max
