"""SRAM cache hierarchy in front of the DRAM cache.

Per Table IV: private 32 KB L1s per core and a shared last-level SRAM
cache (LLSC — the paper's L2). The hierarchy's job in the reproduction is
to filter raw per-core access streams down to the LLSC-miss stream the
DRAM cache observes, while accounting hit latencies for the core model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import LLSCConfig
from repro.sram.cache import SetAssociativeCache

__all__ = ["FilterOutcome", "CacheHierarchy"]


@dataclass(frozen=True)
class FilterOutcome:
    """Where an access was satisfied inside the SRAM hierarchy."""

    level: str  # 'l1' | 'llsc' | 'miss'
    latency: int  # SRAM cycles spent before the DRAM cache sees it (if it does)
    writeback_address: int | None = None  # dirty LLSC victim headed down


class CacheHierarchy:
    """Private L1 data caches + one shared LLSC."""

    L1_SIZE = 32 * 1024
    L1_ASSOC = 2
    L1_LATENCY = 2

    def __init__(self, num_cores: int, llsc: LLSCConfig) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.llsc_config = llsc
        self.l1s = [
            SetAssociativeCache(
                self.L1_SIZE, self.L1_ASSOC, llsc.block_size, name=f"l1d{core}"
            )
            for core in range(num_cores)
        ]
        self.llsc = SetAssociativeCache(
            llsc.size, llsc.associativity, llsc.block_size, name="llsc"
        )

    def access(self, core: int, address: int, *, is_write: bool = False) -> FilterOutcome:
        """Route one access; returns where it hit and the SRAM latency paid.

        Dirty victims evicted from the LLSC surface as
        ``writeback_address`` so the system can push them into the DRAM
        cache (the paper's DRAM cache sits behind a cache-coherent LLSC
        and absorbs its writebacks).
        """
        l1 = self.l1s[core]
        r1 = l1.access(address, is_write=is_write)
        if r1.hit:
            return FilterOutcome(level="l1", latency=self.L1_LATENCY)
        # L1 dirty victims are absorbed by the (inclusive-enough) LLSC: a
        # write access marks the line dirty there.
        if r1.writeback_address is not None:
            self.llsc.access(r1.writeback_address, is_write=True)
        r2 = self.llsc.access(address, is_write=is_write)
        latency = self.L1_LATENCY + self.llsc_config.hit_latency
        if r2.hit:
            return FilterOutcome(level="llsc", latency=latency)
        return FilterOutcome(
            level="miss", latency=latency, writeback_address=r2.writeback_address
        )

    def llsc_miss_rate(self) -> float:
        return self.llsc.accesses.miss_rate

    def reset_stats(self) -> None:
        for l1 in self.l1s:
            l1.reset_stats()
        self.llsc.reset_stats()
