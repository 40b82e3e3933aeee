"""Analytic tag-access latency model (Section III-D4).

The paper derives the average tag access latency of a cached-metadata
organization as

    t_tag_access = h * t_hit + (1 - h) * t_tag_miss
    t_tag_miss  ~= r * t_col + (1 - r) * (t_pre + t_act + t_col)

where ``h`` is the way locator hit rate, ``r`` the metadata bank's
row-buffer hit rate, and the DRAM terms come from the device timing.
From this it computes the **break-even locator hit rate** against a
tags-in-SRAM design (their example: a 256 MB cache's SRAM tag store at
7 cycles, DRAM access ~32 cycles ⇒ the locator must exceed ~78%), and
the claim that the deployed design reaches an average tag latency of
~3.6 cycles — about half the tags-in-SRAM cost.

This module reproduces those closed-form results so they can be tested
against the paper's quoted numbers and evaluated for arbitrary
configurations; :meth:`~repro.bimodal.cache.BiModalCache.average_tag_latency`
evaluates the same model at the measured rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import DRAMTimingConfig

__all__ = ["TagLatencyModel", "breakeven_locator_hit_rate"]


@dataclass(frozen=True)
class TagLatencyModel:
    """Closed-form t_tag_access for a way-located metadata-in-DRAM design.

    Parameters
    ----------
    timing:
        Stacked DRAM timing (CPU cycles).
    locator_latency:
        SRAM lookup cost of the way locator (Table III: 1-2 cycles).
    metadata_bursts:
        Bursts per tag-array read (2 for 2 KB sets, 3 for 4 KB).
    """

    timing: DRAMTimingConfig
    locator_latency: int = 1
    metadata_bursts: int = 2

    def column_read_cycles(self) -> int:
        """CAS + transfer for one tag-array read on an open row."""
        return self.timing.cl + self.metadata_bursts * self.timing.burst_cycles

    def tag_miss_cycles(self, metadata_rbh: float) -> float:
        """t_tag_miss as a function of the metadata bank's RBH."""
        if not 0.0 <= metadata_rbh <= 1.0:
            raise ValueError("metadata_rbh must be in [0, 1]")
        col = self.column_read_cycles()
        conflict = self.timing.trp + self.timing.trcd + col
        return metadata_rbh * col + (1.0 - metadata_rbh) * conflict

    def tag_access_cycles(self, locator_hit_rate: float, metadata_rbh: float) -> float:
        """Average tag access latency (the paper's t_tag_access)."""
        if not 0.0 <= locator_hit_rate <= 1.0:
            raise ValueError("locator_hit_rate must be in [0, 1]")
        miss = self.tag_miss_cycles(metadata_rbh)
        return (
            locator_hit_rate * self.locator_latency
            + (1.0 - locator_hit_rate) * miss
        )


def breakeven_locator_hit_rate(
    *,
    sram_tag_cycles: float,
    locator_latency: float = 1.0,
    dram_tag_cycles: float = 32.0,
) -> float:
    """Minimum locator hit rate to beat a tags-in-SRAM organization.

    Solving ``h * t_loc + (1 - h) * t_dram <= t_sram`` for ``h``.
    The paper's illustration (Section III-D4): a 256 MB cache's SRAM tag
    store costs 7 cycles, a DRAM tag access ~10 ns = 32 cycles at
    3.2 GHz, and the locator 1 cycle ⇒ h must be at least ~78%* — hence
    the emphasis on a high locator hit rate.

    (*) 1 - (32 - 7) / (32 - 1) = 0.194... the paper quotes 78%, i.e.
    ``h >= (t_dram - t_sram) / (t_dram - t_loc)``.
    """
    if dram_tag_cycles <= locator_latency:
        raise ValueError("DRAM tag access must cost more than the locator")
    required = (dram_tag_cycles - sram_tag_cycles) / (
        dram_tag_cycles - locator_latency
    )
    return max(0.0, min(1.0, required))
