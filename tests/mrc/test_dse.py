"""Pareto-pruned design-space exploration: ranking units + driver smoke."""

import pytest

from repro.harness.runner import ExperimentSetup
from repro.mrc.dse import (
    DesignPoint,
    DseEstimateCell,
    DseSimCell,
    default_space,
    dse_estimate_cell,
    pareto_frontier,
    run_design_space,
)
from repro.mrc.engine import MRCSpec, mrc_pass
from repro.obs import get_metrics

TINY = ExperimentSetup(num_cores=4, accesses_per_core=800)


def _point(cache_mb, rate_label=""):
    return DesignPoint(
        cache_mb=cache_mb, block_size=512, associativity=4, policy="fixed"
    )


class TestDesignPoint:
    def test_label(self):
        point = DesignPoint(
            cache_mb=8, block_size=512, associativity=4, policy="fixed"
        )
        assert point.label() == "8MB/512B/4w/fixed"

    def test_sim_cell_scheme_is_the_label(self):
        point = DesignPoint(
            cache_mb=4, block_size=256, associativity=8, policy="adaptive"
        )
        cell = DseSimCell(point=point, mix="Q1", setup=TINY)
        assert cell.scheme == point.label()

    def test_default_space_is_the_36_point_grid(self):
        space = default_space()
        assert len(space) == 36
        assert len(set(space)) == 36
        assert {p.cache_mb for p in space} == {4, 8, 16}
        assert {p.block_size for p in space} == {256, 512, 1024}
        assert {p.associativity for p in space} == {4, 8}
        assert {p.policy for p in space} == {"fixed", "adaptive"}


class TestParetoFrontier:
    def test_dominated_points_are_dropped(self):
        points = [_point(4), _point(8), _point(16)]
        # The 8 MB point is beaten on rate by a smaller cache: dominated.
        rates = [0.90, 0.85, 0.95]
        frontier = pareto_frontier(points, rates)
        assert frontier == [2, 0]

    def test_equal_rate_prefers_smaller_capacity(self):
        points = [_point(4), _point(8)]
        frontier = pareto_frontier(points, [0.9, 0.9])
        assert frontier == [0]

    def test_monotone_tradeoff_keeps_everything(self):
        # Bigger cache, better rate: nothing dominates anything.
        points = [_point(4), _point(8), _point(16)]
        frontier = pareto_frontier(points, [0.80, 0.85, 0.90])
        assert sorted(frontier) == [0, 1, 2]

    def test_ordered_by_estimated_rate_descending(self):
        points = [_point(4), _point(8), _point(16)]
        frontier = pareto_frontier(points, [0.80, 0.85, 0.90])
        assert frontier == [2, 1, 0]

    def test_cap_keeps_the_best(self):
        points = [_point(1 << i) for i in range(6)]
        rates = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        frontier = pareto_frontier(points, rates, max_frontier=2)
        assert frontier == [5, 4]


class TestEstimateCell:
    def test_row_per_point_with_integer_counts(self):
        space = default_space()[:4]
        rows = dse_estimate_cell(
            DseEstimateCell(mix="Q1", setup=TINY, space=space)
        )
        assert len(rows) == len(space)
        for (hits, accesses, best_x, best_y), point in zip(rows, space):
            assert isinstance(hits, int) and isinstance(accesses, int)
            assert 0 <= hits <= accesses
            if point.policy == "fixed":
                assert (best_x, best_y) == (0, 0)
            else:
                assert (best_x, best_y) != (0, 0)

    def test_ghosts_counts_distinct_walks(self):
        # 18 fixed points + 18 adaptive points of 3 or 5 (X, Y) states
        # would be 90 walks; each adaptive point's Y = 0 state is its
        # fixed twin's LRU walk, so the pass runs 72.
        before = get_metrics().counters().get("mrc.ghosts", 0)
        dse_estimate_cell(
            DseEstimateCell(mix="Q1", setup=TINY, space=default_space())
        )
        assert get_metrics().counters()["mrc.ghosts"] - before == 72

    @pytest.mark.parametrize("rate", [0.5, 0.25])
    def test_sampled_rows_match_mrc_pass(self, rate):
        # Both callers share one SHARDS capacity scaling: a sampled dse
        # row is the matching mrc_pass curve point. Q23 at 4 cores × 4k
        # is large enough that the scaled capacities change the rows.
        setup = ExperimentSetup(num_cores=4, accesses_per_core=4000)
        space = default_space()
        rows = dse_estimate_cell(
            DseEstimateCell(mix="Q23", setup=setup, space=space, sample_rate=rate)
        )
        addresses = setup.trace_records("Q23").addresses
        capacities = tuple(sorted({p.cache_mb << 20 for p in space}))
        for block_size, assoc in sorted({(p.block_size, p.associativity) for p in space}):
            result = mrc_pass(
                addresses,
                MRCSpec(
                    capacities=capacities,
                    xy_capacities=capacities,
                    base_block_size=block_size,
                    base_associativity=assoc,
                    set_size=block_size * assoc,
                    big_block_size=block_size,
                    sample_rate=rate,
                    seed=setup.seed,
                    warmup_fraction=0.5,
                ),
            )
            fixed = {p.param: p for p in result.capacity}
            xy = {p.param: p for p in result.xy}
            for point, row in zip(space, rows):
                if (point.block_size, point.associativity) != (block_size, assoc):
                    continue
                capacity = point.cache_mb << 20
                if point.policy == "fixed":
                    expected = [fixed[capacity].hits, fixed[capacity].accesses, 0, 0]
                else:
                    expected = [
                        xy[capacity].hits,
                        xy[capacity].accesses,
                        *result.best_xy[capacity],
                    ]
                assert row == expected, point.label()


class TestRunDesignSpace:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_design_space(setup=TINY, mix_names=["Q1"], jobs=2)

    def test_row_per_design_point(self, outcome):
        rows = outcome["rows"]
        assert len(rows) == 36
        for row in rows:
            assert row["sim_fraction"] in (0.0, 0.25, 1.0)
            assert 0.0 <= row["est_hit_rate"] <= 1.0
            assert ("hit_rate" in row) == (row["sim_fraction"] == 1.0)

    def test_only_frontier_points_are_simulated(self, outcome):
        for row in outcome["rows"]:
            if row["sim_fraction"] > 0.0:
                assert row["frontier"]

    def test_winner_is_a_fully_simulated_best(self, outcome):
        winner = outcome["winner"]
        assert winner is not None
        assert winner["sim_fraction"] == 1.0
        fully = [r for r in outcome["rows"] if r["sim_fraction"] == 1.0]
        assert winner["hit_rate"] == max(r["hit_rate"] for r in fully)

    def test_cost_accounting(self, outcome):
        stats = outcome["stats"]
        assert stats["points"] == stats["exhaustive_sims"] == 36
        assert stats["frontier_size"] <= 8
        assert stats["survivors"] == max(1, (stats["frontier_size"] + 1) // 2)
        spent = 0.25 * stats["frontier_size"] + stats["survivors"]
        assert stats["full_sims_equivalent"] == spent
        assert stats["full_sims_avoided"] == 36 - spent
        assert stats["speedup"] == pytest.approx(36 / spent)
        # The ISSUE acceptance bound, also gated in CI by dse_smoke.
        assert stats["speedup"] >= 5.0

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_design_space(setup=TINY, mix_names=["Q1"], space=())

    @pytest.mark.parametrize("rate", [0.0, 1.5])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            run_design_space(
                setup=TINY, mix_names=["Q1"], sample_rate=rate
            )
