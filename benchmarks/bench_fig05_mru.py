"""Figure 5: fraction of cache hits by MRU position (8-way, 8-core).

Paper: on average more than 94% of hits land on the top-2 MRU ways,
justifying a 2-entry-per-set way locator.
"""

from conftest import EIGHT_MIXES

from repro.harness.experiments import fig5_mru_hits


def test_fig5_mru_hits(benchmark, report, eight_setup):
    rows = benchmark.pedantic(
        lambda: fig5_mru_hits(setup=eight_setup, mix_names=EIGHT_MIXES, jobs=0),
        rounds=1,
        iterations=1,
    )
    report(
        rows,
        title="Figure 5: hits by MRU position (8-way)",
        columns=["mix", "mru0", "mru1", "mru2", "mru3", "top2"],
    )
    mean = rows[-1]
    assert mean["mix"] == "mean"
    # Strong MRU concentration; the paper reports >94%, we require the
    # same qualitative dominance of the top-2 positions.
    assert mean["top2"] > 0.80
    assert mean["mru0"] > mean["mru1"] > mean["mru3"]
