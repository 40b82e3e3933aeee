"""Figure 8(c): average LLSC miss penalty across all organizations.

Paper: Bi-Modal achieves the lowest average access latency — 22.9% below
AlloyCache, 12% below Footprint Cache, 26.5% below ATCache (V-C1) —
despite keeping its metadata in DRAM.
"""

from conftest import QUAD_MIXES

from repro.harness.experiments import fig8c_access_latency


def test_fig8c_access_latency(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: fig8c_access_latency(setup=quad_setup, mix_names=QUAD_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 8c: average LLSC miss penalty (cycles)")
    mean = rows[-1]
    assert mean["mix"] == "mean"
    # Bi-Modal beats the baseline and the tags-in-SRAM/tag-cache schemes.
    assert mean["bimodal"] < mean["alloy"]
    assert mean["bimodal"] < mean["atcache"]
    assert mean["bimodal"] < mean["lohhill"]
    # The naive fixed-512B organization (no locator, serialized tags) is
    # the worst of the big-block designs — the gap the way locator closes.
    assert mean["fixed512"] > 1.5 * mean["bimodal"]
