"""Analytic tag-latency model vs the paper's Section III-D4 numbers."""

import pytest
from hypothesis import given, strategies as st

from repro.bimodal.analytic import TagLatencyModel, breakeven_locator_hit_rate
from repro.common.config import DRAMTimingConfig


@pytest.fixture
def model():
    return TagLatencyModel(DRAMTimingConfig.stacked())


class TestPaperNumbers:
    def test_breakeven_is_about_78_percent(self):
        """Paper: with a 7-cycle SRAM tag store, a 1-cycle locator and a
        ~32-cycle DRAM tag access, the locator needs h >= ~78%."""
        h = breakeven_locator_hit_rate(
            sram_tag_cycles=7, locator_latency=1, dram_tag_cycles=32
        )
        assert h == pytest.approx(0.806, abs=0.03)  # (32-7)/(32-1)

    def test_high_hit_rate_halves_sram_latency(self, model):
        """Paper: h > 90% with a high metadata RBH yields ~3.6 cycles —
        about half the 7-cycle tags-in-SRAM cost."""
        latency = model.tag_access_cycles(locator_hit_rate=0.95, metadata_rbh=0.8)
        assert latency < 7.0 / 2 + 1.5  # near the paper's 3.6

    def test_dedicated_bank_cuts_tag_miss_over_30_percent(self, model):
        """Paper: the dedicated metadata bank reduces t_tag_miss by >30%
        relative to co-located tags via its higher RBH (their Fig. 9b
        RBH gap of ~0.5 in absolute terms delivers the >30%)."""
        separate = model.tag_miss_cycles(metadata_rbh=0.75)
        colocated = model.tag_miss_cycles(metadata_rbh=0.25)
        assert (colocated - separate) / colocated > 0.30


class TestModelProperties:
    def test_perfect_locator_costs_sram_only(self, model):
        assert model.tag_access_cycles(1.0, 0.5) == model.locator_latency

    def test_no_locator_costs_full_dram(self, model):
        assert model.tag_access_cycles(0.0, 0.5) == model.tag_miss_cycles(0.5)

    def test_column_read(self, model):
        t = DRAMTimingConfig.stacked()
        assert model.column_read_cycles() == t.cl + 2 * t.burst_cycles

    @given(
        h=st.floats(0.0, 1.0),
        r=st.floats(0.0, 1.0),
    )
    def test_monotonicity(self, h, r):
        """Latency falls with locator hit rate and with metadata RBH."""
        model = TagLatencyModel(DRAMTimingConfig.stacked())
        base = model.tag_access_cycles(h, r)
        if h <= 0.95:
            assert model.tag_access_cycles(min(1.0, h + 0.05), r) <= base + 1e-9
        if r <= 0.95:
            assert model.tag_access_cycles(h, min(1.0, r + 0.05)) <= base + 1e-9

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.tag_access_cycles(1.5, 0.5)
        with pytest.raises(ValueError):
            model.tag_miss_cycles(-0.1)
        with pytest.raises(ValueError):
            breakeven_locator_hit_rate(
                sram_tag_cycles=7, locator_latency=40, dram_tag_cycles=32
            )

    def test_breakeven_bounds(self):
        # SRAM costlier than DRAM: any hit rate works
        assert breakeven_locator_hit_rate(
            sram_tag_cycles=40, locator_latency=1, dram_tag_cycles=32
        ) == 0.0
        # SRAM as cheap as the locator: need a perfect locator
        assert breakeven_locator_hit_rate(
            sram_tag_cycles=1, locator_latency=1, dram_tag_cycles=32
        ) == 1.0
