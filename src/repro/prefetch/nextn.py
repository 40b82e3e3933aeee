"""Next-N-lines prefetcher between the LLSC and the DRAM cache.

Section V-I: on every demand read the prefetcher issues the next ``N``
spatially adjacent 64-byte blocks (N = 1 conservative, N = 3 aggressive)
unless recently issued. Two DRAM cache policies are modeled:

* ``PREF_NORMAL`` — prefetches behave exactly like demand accesses
  (they allocate in the DRAM cache);
* ``PREF_BYPASS`` — prefetches that miss in the DRAM cache fetch from
  memory without allocating (the data goes up to the LLSC only), which
  avoids polluting the DRAM cache with speculative fills.

Prefetches are posted: they consume bank/bus/off-chip bandwidth but do
not stall the issuing core.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.dramcache.base import DRAMCacheAccess, DRAMCacheBase

__all__ = ["PREF_NORMAL", "PREF_BYPASS", "NextNPrefetcher"]

PREF_NORMAL = "normal"
PREF_BYPASS = "bypass"


class NextNPrefetcher:
    """Wraps a DRAM cache; demand reads trigger next-N-line prefetches."""

    def __init__(
        self,
        cache: DRAMCacheBase,
        *,
        degree: int = 1,
        mode: str = PREF_NORMAL,
        filter_entries: int = 4096,
    ) -> None:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if mode not in (PREF_NORMAL, PREF_BYPASS):
            raise ValueError(f"unknown prefetch mode {mode!r}")
        self.cache = cache
        self.degree = degree
        self.mode = mode
        self._filter: OrderedDict[int, None] = OrderedDict()
        self._filter_entries = filter_entries
        self.prefetches_issued = 0
        self.prefetches_filtered = 0
        self.bypassed_prefetches = 0

    # ------------------------------------------------------------------
    def _recently_issued(self, block: int) -> bool:
        if block in self._filter:
            self._filter.move_to_end(block)
            return True
        self._filter[block] = None
        if len(self._filter) > self._filter_entries:
            self._filter.popitem(last=False)
        return False

    def _issue_prefetch(self, address: int, now: int) -> None:
        block = address >> 6
        if self._recently_issued(block):
            self.prefetches_filtered += 1
            return
        self.prefetches_issued += 1
        if self.mode == PREF_BYPASS and not self.cache_resident(address):
            # Fetch for the LLSC without allocating in the DRAM cache.
            self.bypassed_prefetches += 1
            self.cache._fetch_offchip(address, now, bursts=1)
            return
        self.cache.access(address, now, is_write=False)

    def cache_resident(self, address: int) -> bool:
        """Residency probe; schemes without one treat bypass as normal."""
        probe = getattr(self.cache, "resident", None)
        if probe is None:
            return True
        return probe(address)

    def reset_stats(self) -> None:
        """Delegate warm-up resets to the wrapped cache."""
        self.cache.reset_stats()

    def stats_snapshot(self) -> dict:
        snap = self.cache.stats_snapshot()
        snap["prefetches_issued"] = self.prefetches_issued
        snap["bypassed_prefetches"] = self.bypassed_prefetches
        return snap

    # ------------------------------------------------------------------
    def access(self, address: int, now: int, *, is_write: bool = False) -> DRAMCacheAccess:
        """Demand access, then fire next-N prefetches (posted)."""
        result = self.cache.access(address, now, is_write=is_write)
        if not is_write:
            self._filter[address >> 6] = None
            for i in range(1, self.degree + 1):
                self._issue_prefetch(address + 64 * i, result.complete)
        return result
