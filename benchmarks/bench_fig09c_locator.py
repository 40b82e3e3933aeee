"""Figure 9(c): way locator hit rate vs table size K.

Paper: K=14 is the sweet spot (~95% average hit rate on quad-core
workloads at 77.8 KB); hit rates rise with K and saturate.
"""

from repro.harness.experiments import fig9c_way_locator_hit_rate

LOCATOR_MIXES = ["Q2", "Q12", "Q17", "Q20"]


def test_fig9c_way_locator_hit_rate(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: fig9c_way_locator_hit_rate(
            setup=quad_setup, mix_names=LOCATOR_MIXES, jobs=0
        ),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 9c: way locator hit rate vs K")
    mean = rows[-1]
    assert mean["mix"] == "mean"
    # Monotone-ish growth with K and saturation at the top.
    assert mean["K16"] >= mean["K12"] >= mean["K10"] - 0.02
    # At the paper's chosen K=14, the locator serves the vast majority
    # of accesses with a single SRAM lookup.
    assert mean["K14"] > 0.80
