"""Shared substrate: addressing, configuration, statistics, fixed tables."""

from repro.common.addressing import (
    SUB_BLOCK_BITS,
    SUB_BLOCK_SIZE,
    AddressMap,
    align_down,
    is_power_of_two,
    log2_int,
    sub_block_index,
)
from repro.common.config import (
    CORE_COUNTS,
    CoreConfig,
    DRAMCacheGeometry,
    DRAMGeometry,
    DRAMTimingConfig,
    SystemConfig,
    system_config,
)
from repro.common.stats import Counter, Histogram, MeanStat, RateStat, RunningMean
from repro.common.tables import (
    CPU_FREQ_HZ,
    PAPER_TABLE3_LATENCY_CYCLES,
    PAPER_TABLE3_STORAGE_KB,
    TAG_STORE_LATENCY,
    sram_latency_cycles,
    way_locator_entry_bits,
    way_locator_storage_bytes,
)

__all__ = [
    "SUB_BLOCK_BITS",
    "SUB_BLOCK_SIZE",
    "AddressMap",
    "align_down",
    "is_power_of_two",
    "log2_int",
    "sub_block_index",
    "CORE_COUNTS",
    "CoreConfig",
    "DRAMCacheGeometry",
    "DRAMGeometry",
    "DRAMTimingConfig",
    "SystemConfig",
    "system_config",
    "Counter",
    "Histogram",
    "MeanStat",
    "RateStat",
    "RunningMean",
    "CPU_FREQ_HZ",
    "PAPER_TABLE3_LATENCY_CYCLES",
    "PAPER_TABLE3_STORAGE_KB",
    "TAG_STORE_LATENCY",
    "sram_latency_cycles",
    "way_locator_entry_bits",
    "way_locator_storage_bytes",
]
