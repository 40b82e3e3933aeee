"""Figure 1: LLSC miss rate vs DRAM cache block size (64 B .. 4 KB).

Paper's observation: for most workloads the miss rate nearly halves with
each doubling of the block size — the motivation for large blocks.
"""

from conftest import QUAD_MIXES

from repro.harness.experiments import fig1_miss_rate_vs_block_size


def test_fig1_miss_rate_vs_block_size(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: fig1_miss_rate_vs_block_size(setup=quad_setup, mix_names=QUAD_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Figure 1: miss rate vs block size")
    mean = rows[-1]
    assert mean["mix"] == "mean"
    # Shape: strictly improving up to 512B, and 512B at most ~55% of 64B.
    assert mean["512B"] < mean["256B"] < mean["128B"] < mean["64B"]
    assert mean["512B"] < 0.55 * mean["64B"]
    # Large blocks keep helping on average (spatial locality beyond 512B).
    assert mean["4096B"] <= mean["1024B"] * 1.05
