"""Energy model tests."""

import pytest

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice
from repro.dramcache.alloy import AlloyCache
from repro.energy.model import EnergyBreakdown, EnergyModel, EnergyParams


def run_small_workload(n_conflicting=20):
    geometry = DRAMCacheGeometry(
        capacity=1 << 20,
        geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
    )
    offchip = DRAMDevice(
        DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
        DRAMTimingConfig.ddr3_1600h(),
    )
    cache = AlloyCache(geometry, offchip)
    t = 0
    for i in range(n_conflicting):
        r = cache.access(i * 64 * 977, t)
        t = r.complete + 10
    return cache, offchip


class TestBreakdown:
    def test_totals_compose(self):
        b = EnergyBreakdown(
            offchip_activate=10.0,
            offchip_transfer=20.0,
            stacked_activate=5.0,
            stacked_transfer=2.0,
            sram=1.0,
        )
        assert b.offchip_total == 30.0
        assert b.total == 38.0


class TestMeasurement:
    def test_measures_positive_energy(self):
        cache, offchip = run_small_workload()
        breakdown = EnergyModel().measure(cache, offchip)
        assert breakdown.total > 0
        assert breakdown.offchip_activate > 0
        assert breakdown.stacked_transfer > 0

    def test_offchip_costlier_per_event(self):
        p = EnergyParams()
        assert p.offchip_activate_nj > p.stacked_activate_nj
        assert p.offchip_burst_nj > p.stacked_burst_nj

    def test_more_traffic_more_energy(self):
        small_cache, small_off = run_small_workload(10)
        big_cache, big_off = run_small_workload(100)
        model = EnergyModel()
        assert (
            model.measure(big_cache, big_off).total
            > model.measure(small_cache, small_off).total
        )

    def test_explicit_sram_lookups(self):
        cache, offchip = run_small_workload(5)
        model = EnergyModel()
        without = model.measure(cache, offchip, sram_lookups=0)
        with_lookups = model.measure(cache, offchip, sram_lookups=1_000_000)
        assert with_lookups.sram > without.sram

    def test_savings_percent(self):
        model = EnergyModel()
        base = EnergyBreakdown(100.0, 100.0, 10.0, 10.0, 0.0)
        improved = EnergyBreakdown(50.0, 80.0, 20.0, 15.0, 1.0)
        saving = model.savings_percent(base, improved)
        assert saving == pytest.approx(100.0 * (220 - 166) / 220)

    def test_savings_validation(self):
        model = EnergyModel()
        zero = EnergyBreakdown(0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            model.savings_percent(zero, zero)
