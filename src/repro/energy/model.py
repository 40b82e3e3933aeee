"""Memory-system energy model (Section V-H).

The paper computes energy from event counts: "the number of accesses,
DRAM cache hit rate, way locator hit rate, row buffer hit rates in the
cache and main memory, and the amount of data transferred". We do the
same over the substrate's counters:

* every row activation (and its eventual precharge) costs a fixed
  activate/precharge energy — off-chip activations are several times
  more expensive than stacked ones (page size and I/O drivers);
* every 64-byte transfer costs a per-burst access+I/O energy, with
  off-chip transfers paying pad/termination energy the TSV-based stack
  avoids;
* SRAM structures (way locator, predictors, tag stores) cost a small
  per-lookup energy.

Absolute joules are representative (DDR3-1600 and stacked-DRAM
literature values); the experiments only consume *relative* savings,
which depend on the event-count ratios the simulator measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.device import DRAMDevice
from repro.dramcache.base import DRAMCacheBase

__all__ = ["EnergyParams", "EnergyBreakdown", "EnergyModel"]


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies in nanojoules.

    Derived from DDR3-1600 datasheet currents (IDD0/IDD4 windows) and
    die-stacked DRAM literature: an off-chip 2 KB activation+precharge
    pair costs ~30 nJ, a 64 B off-chip burst ~10 nJ including I/O and
    termination; on-stack events avoid pad drivers (~4 nJ / ~1.5 nJ).
    The experiments consume only *relative* savings; EXPERIMENTS.md
    notes the sensitivity of Figure 11 to this weighting.
    """

    offchip_activate_nj: float = 30.0  # ACT+PRE pair, 2 KB page, DDR3
    offchip_burst_nj: float = 10.0  # 64 B read/write incl. I/O + termination
    stacked_activate_nj: float = 4.0  # smaller effective page, TSV I/O
    stacked_burst_nj: float = 1.5  # 64 B over wide on-stack bus
    sram_lookup_nj: float = 0.01


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component in nanojoules."""

    offchip_activate: float
    offchip_transfer: float
    stacked_activate: float
    stacked_transfer: float
    sram: float

    @property
    def offchip_total(self) -> float:
        return self.offchip_activate + self.offchip_transfer

    @property
    def total(self) -> float:
        return (
            self.offchip_activate
            + self.offchip_transfer
            + self.stacked_activate
            + self.stacked_transfer
            + self.sram
        )

    def to_dict(self) -> dict[str, float]:
        """Flat-key export (shared stats protocol; see harness.export)."""
        return {
            "offchip_activate_nj": self.offchip_activate,
            "offchip_transfer_nj": self.offchip_transfer,
            "stacked_activate_nj": self.stacked_activate,
            "stacked_transfer_nj": self.stacked_transfer,
            "sram_nj": self.sram,
            "offchip_total_nj": self.offchip_total,
            "total_nj": self.total,
        }


class EnergyModel:
    """Computes an :class:`EnergyBreakdown` from simulator counters."""

    def __init__(self, params: EnergyParams | None = None) -> None:
        self.params = params or EnergyParams()

    def measure(
        self,
        cache: DRAMCacheBase,
        offchip: DRAMDevice,
        *,
        sram_lookups: int | None = None,
    ) -> EnergyBreakdown:
        p = self.params
        if sram_lookups is None:
            locator = getattr(cache, "locator", None)
            sram_lookups = locator.lookups.total if locator is not None else 0
        stacked_bursts = cache.dram.bytes_transferred / 64
        offchip_bursts = offchip.bytes_transferred / 64
        return EnergyBreakdown(
            offchip_activate=offchip.total_activations() * p.offchip_activate_nj,
            offchip_transfer=offchip_bursts * p.offchip_burst_nj,
            stacked_activate=cache.dram.total_activations() * p.stacked_activate_nj,
            stacked_transfer=stacked_bursts * p.stacked_burst_nj,
            sram=sram_lookups * p.sram_lookup_nj,
        )

    def savings_percent(
        self, baseline: EnergyBreakdown, improved: EnergyBreakdown
    ) -> float:
        """Relative total-energy reduction, in percent."""
        if baseline.total <= 0:
            raise ValueError("baseline energy must be positive")
        return 100.0 * (baseline.total - improved.total) / baseline.total
