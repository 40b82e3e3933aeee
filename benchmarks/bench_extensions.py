"""Extension studies beyond the paper (victim buffer, set dueling,
space utilization) — DESIGN.md section 5."""

from repro.harness.experiments import (
    controller_comparison,
    space_utilization_comparison,
    victim_buffer_study,
)
from repro.harness.runner import ExperimentSetup


def test_victim_buffer_benefit_is_small(benchmark, report, quad_setup):
    """Reproduces the Related-Work claim: evicted DRAM-cache blocks see
    very little near-term reuse, so a victim cache would help little."""
    rows = benchmark.pedantic(
        lambda: victim_buffer_study(
            setup=quad_setup, mix_names=["Q2", "Q7", "Q23"], jobs=0
        ),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Extension: victim-buffer benefit bound")
    total = rows[-1]
    assert total["mix"] == "total"
    # A 512-entry victim buffer converts only a tiny miss fraction.
    assert total["victim_hit_fraction"] < 0.10


def test_controller_comparison(benchmark, report, quad_setup):
    """The paper's demand-ratio adaptation is competitive with the
    set-dueling election it cites."""
    rows = benchmark.pedantic(
        lambda: controller_comparison(setup=quad_setup, mix_names=["Q2", "Q23"], jobs=0),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Extension: demand-ratio vs set-dueling adaptation")
    for row in rows:
        # Similar hit rates — neither controller collapses.
        assert abs(row["demand_hit"] - row["dueling_hit"]) < 0.10


def test_space_utilization(benchmark, report):
    """Bi-modality improves referenced/committed bytes on sparse mixes
    (the block-internal-fragmentation argument of Section II-B)."""
    setup = ExperimentSetup(num_cores=4, accesses_per_core=40_000, seed=1)
    rows = benchmark.pedantic(
        lambda: space_utilization_comparison(
            setup=setup, mix_names=["Q2", "Q7", "Q23"], jobs=0
        ),
        rounds=1,
        iterations=1,
    )
    report(rows, title="Extension: cache space utilization")
    by_mix = {r["mix"]: r for r in rows}
    # On the sparse mixes, bi-modal sets commit less dead space.
    assert by_mix["Q23"]["gain"] > 0.02
    assert by_mix["Q7"]["gain"] > 0.0
    # Dense mixes are already well utilized either way.
    assert by_mix["Q2"]["fixed512_space_util"] > 0.5
