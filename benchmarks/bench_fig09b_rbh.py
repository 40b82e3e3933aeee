"""Figure 9(b): metadata row-buffer hit rate — separate vs co-located.

Paper: dedicating a bank to densely packed metadata improves the
metadata RBH by 37% on average over co-locating tags with data, which is
what makes DRAM tag reads cheap on way locator misses.
"""

from repro.harness.experiments import fig9b_metadata_rbh

RBH_MIXES = ["Q2", "Q5", "Q17", "Q20"]


def test_fig9b_metadata_rbh(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: fig9b_metadata_rbh(setup=quad_setup, mix_names=RBH_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 9b: metadata RBH, separate vs co-located")
    mean = rows[-1]
    assert mean["mix"] == "mean"
    # The dedicated metadata bank beats co-location on the tag reads the
    # deployed design issues (locator misses) for the dense/moderate
    # mixes where those reads are scattered across sets. Absolute RBH is
    # pessimistic in the in-order service model, and very miss-heavy
    # sparse streams can invert locally — the mean relative advantage is
    # the reproduced claim (paper: +37%). See EXPERIMENTS.md D5.
    assert mean["gain_pct"] > 10.0
    positives = sum(1 for r in rows[:-1] if r["gain_pct"] > 0)
    assert positives >= len(rows[:-1]) - 1
