"""Configuration dataclasses mirroring Table IV of the paper.

All latencies are expressed in CPU cycles at 3.2 GHz. The stacked DRAM
cache runs its interface at 1.6 GHz (1 DRAM cycle = 2 CPU cycles) with a
128-bit bus; off-chip memory is DDR3-1600H (command clock 800 MHz, 1 DRAM
cycle = 4 CPU cycles) with a 64-bit channel. Both use CL-nRCD-nRP = 9-9-9
in DRAM cycles, per Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.addressing import is_power_of_two

__all__ = [
    "DRAMTimingConfig",
    "DRAMGeometry",
    "CoreConfig",
    "DRAMCacheGeometry",
    "SystemConfig",
    "system_config",
    "CORE_COUNTS",
]

CORE_COUNTS = (4, 8, 16)


@dataclass(frozen=True)
class DRAMTimingConfig:
    """DRAM device timing in CPU cycles.

    ``burst_cycles`` is the data-bus occupancy for one 64-byte transfer.
    """

    cl: int
    trcd: int
    trp: int
    burst_cycles: int
    trefi: int
    trfc: int
    tras: int

    @classmethod
    def stacked(cls) -> "DRAMTimingConfig":
        """Stacked (die-stacked) DRAM: 1.6 GHz, 128-bit bus.

        9-9-9 at 1.6 GHz = 18-18-18 CPU cycles; a 64 B burst moves over a
        128-bit DDR bus in 2 DRAM cycles = 4 CPU cycles.
        """
        return cls(
            cl=18,
            trcd=18,
            trp=18,
            burst_cycles=4,
            trefi=24960,  # 7.8 us @ 3.2 GHz
            trfc=560,  # 280 nCK @ 1.6 GHz
            tras=56,
        )

    @classmethod
    def ddr3_1600h(cls) -> "DRAMTimingConfig":
        """Off-chip DDR3-1600H: 800 MHz command clock, 64-bit channel.

        9-9-9 at 800 MHz = 36-36-36 CPU cycles; BL = 4 DRAM cycles = 16
        CPU cycles per 64 B burst (Table IV).
        """
        return cls(
            cl=36,
            trcd=36,
            trp=36,
            burst_cycles=16,
            trefi=24960,
            trfc=1120,  # 280 nCK @ 800 MHz
            tras=112,
        )

    @property
    def tccd(self) -> int:
        """Column-to-column command spacing (CAS pipelining).

        Consecutive CAS commands to an open row issue every tCCD, which
        for these devices equals one burst's transfer time — so a bank
        streams row hits at full bus rate while each access still sees
        the full CL latency.
        """
        return self.burst_cycles

    @property
    def row_hit_latency(self) -> int:
        """CAS-to-data for an already-open row (excludes transfer)."""
        return self.cl

    @property
    def row_closed_latency(self) -> int:
        """ACT + CAS for a precharged bank (excludes transfer)."""
        return self.trcd + self.cl

    @property
    def row_conflict_latency(self) -> int:
        """PRE + ACT + CAS when another row is open (excludes transfer)."""
        return self.trp + self.trcd + self.cl


@dataclass(frozen=True)
class DRAMGeometry:
    """Physical organization of a DRAM device (stack or off-chip ranks)."""

    channels: int
    banks_per_channel: int
    page_size: int  # row-buffer size in bytes

    def __post_init__(self) -> None:
        if self.channels < 1 or self.banks_per_channel < 1:
            raise ValueError("channels and banks_per_channel must be >= 1")
        if not is_power_of_two(self.page_size):
            raise ValueError("page_size must be a power of two")

    @property
    def total_banks(self) -> int:
        return self.channels * self.banks_per_channel


@dataclass(frozen=True)
class CoreConfig:
    """Interval-model core parameters (substitute for GEM5 OOO Alpha)."""

    base_cpi: float = 0.6
    memory_level_parallelism: float = 2.2

    def __post_init__(self) -> None:
        if self.base_cpi <= 0 or self.memory_level_parallelism < 1.0:
            raise ValueError("base_cpi must be > 0 and MLP >= 1.0")


@dataclass(frozen=True)
class DRAMCacheGeometry:
    """Capacity-level parameters shared by all DRAM cache organizations."""

    capacity: int
    geometry: DRAMGeometry
    timing: DRAMTimingConfig = field(default_factory=DRAMTimingConfig.stacked)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.capacity):
            raise ValueError("capacity must be a power of two")


@dataclass(frozen=True)
class SystemConfig:
    """A full CMP configuration row from Table IV."""

    num_cores: int
    dram_cache: DRAMCacheGeometry
    offchip_channels: int
    offchip_banks_per_channel: int
    offchip_timing: DRAMTimingConfig = field(
        default_factory=DRAMTimingConfig.ddr3_1600h
    )

    @property
    def offchip_geometry(self) -> DRAMGeometry:
        return DRAMGeometry(
            channels=self.offchip_channels,
            banks_per_channel=self.offchip_banks_per_channel,
            page_size=2048,
        )

    def scaled_cache(self, capacity: int) -> "SystemConfig":
        """Variant with a different DRAM cache capacity (Fig. 12 sweeps)."""
        return replace(self, dram_cache=replace(self.dram_cache, capacity=capacity))


_TABLE_IV = {
    # cores: (cache_MB, stacked_channels, offchip_channels)
    4: (128, 2, 1),
    8: (256, 4, 2),
    16: (512, 8, 4),
}


def system_config(num_cores: int, *, dram_cache_mb: int | None = None) -> SystemConfig:
    """Build the Table IV configuration for 4, 8 or 16 cores.

    ``dram_cache_mb`` overrides the DRAM cache capacity for sensitivity
    studies (Figure 12 uses 64 MB and 512 MB on the 4-core system).
    """
    if num_cores not in _TABLE_IV:
        raise ValueError(f"num_cores must be one of {sorted(_TABLE_IV)}")
    cache_mb, st_ch, off_ch = _TABLE_IV[num_cores]
    if dram_cache_mb is not None:
        cache_mb = dram_cache_mb
    return SystemConfig(
        num_cores=num_cores,
        dram_cache=DRAMCacheGeometry(
            capacity=cache_mb << 20,
            geometry=DRAMGeometry(
                channels=st_ch, banks_per_channel=8, page_size=2048
            ),
        ),
        offchip_channels=off_ch,
        offchip_banks_per_channel=16,
    )
