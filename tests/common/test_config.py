"""Tests for Table IV configuration construction."""

import pytest

from repro.common.config import (
    CORE_COUNTS,
    CoreConfig,
    DRAMGeometry,
    DRAMTimingConfig,
    system_config,
)


class TestDRAMTimings:
    def test_stacked_is_9_9_9_at_1600mhz(self):
        t = DRAMTimingConfig.stacked()
        # 9 DRAM cycles at 1.6 GHz = 18 CPU cycles at 3.2 GHz
        assert t.cl == t.trcd == t.trp == 18
        assert t.burst_cycles == 4  # 64B over 128-bit DDR bus

    def test_ddr3_1600h(self):
        t = DRAMTimingConfig.ddr3_1600h()
        assert t.cl == t.trcd == t.trp == 36
        assert t.burst_cycles == 16  # BL=4 DRAM cycles at 800 MHz

    def test_latency_compositions(self):
        t = DRAMTimingConfig.stacked()
        assert t.row_hit_latency == 18
        assert t.row_closed_latency == 36
        assert t.row_conflict_latency == 54

    def test_offchip_slower_than_stacked(self):
        assert (
            DRAMTimingConfig.ddr3_1600h().row_conflict_latency
            > DRAMTimingConfig.stacked().row_conflict_latency
        )


class TestGeometry:
    def test_total_banks(self):
        geo = DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048)
        assert geo.total_banks == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMGeometry(channels=0, banks_per_channel=8, page_size=2048)
        with pytest.raises(ValueError):
            DRAMGeometry(channels=1, banks_per_channel=8, page_size=1000)


class TestCoreConfig:
    def test_defaults(self):
        cfg = CoreConfig()
        assert cfg.memory_level_parallelism >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(base_cpi=0)
        with pytest.raises(ValueError):
            CoreConfig(memory_level_parallelism=0.5)


class TestSystemConfig:
    @pytest.mark.parametrize("cores", CORE_COUNTS)
    def test_table_iv_rows(self, cores):
        cfg = system_config(cores)
        assert cfg.num_cores == cores
        # Table IV: 4/8/16 cores -> 128/256/512 MB cache
        assert cfg.dram_cache.capacity == (128 << 20) * (cores // 4)

    def test_channel_scaling(self):
        assert system_config(4).offchip_channels == 1
        assert system_config(8).offchip_channels == 2
        assert system_config(16).offchip_channels == 4
        assert system_config(4).dram_cache.geometry.channels == 2
        assert system_config(16).dram_cache.geometry.channels == 8

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            system_config(2)

    def test_cache_override(self):
        cfg = system_config(4, dram_cache_mb=64)
        assert cfg.dram_cache.capacity == 64 << 20

    def test_scaled_cache(self):
        cfg = system_config(4).scaled_cache(8 << 20)
        assert cfg.dram_cache.capacity == 8 << 20
        assert cfg.num_cores == 4
