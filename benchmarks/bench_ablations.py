"""Ablations beyond the paper (DESIGN.md section 5).

* threshold T sweep — the paper fixes T=5 and notes a stricter threshold
  trades off-chip bandwidth against hit rate; we measure the sweep;
* adaptation weight W sweep — the paper fixes W=0.75;
* tracker sampling-rate sweep — the paper samples ~4% of sets;
* parallel vs serial tag+data issue on locator misses — quantifies the
  concurrency the dedicated metadata bank enables.
"""

from repro.harness.experiments import (
    ablation_parallel_tag,
    ablation_sampling,
    ablation_threshold,
    ablation_weight,
)


def test_ablation_threshold(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: ablation_threshold(setup=quad_setup, mix_names=["Q7"], jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Ablation: utilization threshold T (Q7)")
    by_t = {r["T"]: r for r in rows}
    # A stricter threshold (higher T) classifies more blocks small,
    # shifting traffic toward small blocks.
    assert by_t[8]["small_fraction"] >= by_t[2]["small_fraction"]
    # A permissive threshold (T=2) stores nearly everything big and
    # spends the most off-chip bandwidth.
    assert by_t[2]["offchip_mb"] >= by_t[8]["offchip_mb"] * 0.9


def test_ablation_weight(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: ablation_weight(setup=quad_setup, mix_names=["Q7"], jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Ablation: adaptation weight W (Q7)")
    by_w = {r["W"]: r for r in rows}
    # Heavier W boosts the small-block quota demand.
    assert by_w[1.5]["small_fraction"] >= by_w[0.25]["small_fraction"] - 0.02


def test_ablation_sampling(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: ablation_sampling(setup=quad_setup, mix_names=["Q7"], jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Ablation: tracker set-sampling rate (Q7)")
    by_rate = {r["sample_every"]: r for r in rows}
    # Sparse sampling trains the predictor less -> fewer small decisions.
    assert by_rate[32]["small_fraction"] <= by_rate[1]["small_fraction"] + 0.05


def test_ablation_parallel_tag(benchmark, report, quad_setup):
    rows = benchmark.pedantic(
        lambda: ablation_parallel_tag(setup=quad_setup, mix_names=["Q2", "Q7"], jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Ablation: parallel vs serial tag+data issue")
    for row in rows:
        # Parallel tag+data on locator misses never hurts.
        assert row["parallel_latency"] <= row["serial_latency"] * 1.02
