"""Victim buffer study (Related Work, Section VI).

The paper reports: "At the DRAM cache level, we found very little benefit
of retaining evicted (or likely to be evicted) blocks in a victim cache
since there was very little temporal reuse." This module implements the
victim buffer so the claim can be measured rather than asserted: a small
fully-associative buffer holds recently evicted blocks (at 64 B
sub-block granularity, the only granularity a mixed-size cache can share
re-insertion at), and a wrapper cache consults it on misses.

The ablation benchmark measures the fraction of DRAM cache misses the
buffer would have served — the upper bound on any victim cache benefit.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.bimodal.cache import BiModalCache

__all__ = ["VictimBuffer", "VictimProbeWrapper"]


class VictimBuffer:
    """Fully-associative FIFO of recently evicted 64 B block addresses."""

    def __init__(self, entries: int = 512) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.capacity = entries
        self._blocks: OrderedDict[int, None] = OrderedDict()
        self.insertions = 0
        self.probe_hits = 0
        self.probes = 0

    def insert(self, block_address: int) -> None:
        block = block_address >> 6
        self._blocks[block] = None
        self._blocks.move_to_end(block)
        self.insertions += 1
        while len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)

    def probe(self, address: int) -> bool:
        """Would this miss have hit in the victim buffer?"""
        self.probes += 1
        hit = (address >> 6) in self._blocks
        if hit:
            self.probe_hits += 1
        return hit

    def remove(self, address: int) -> None:
        self._blocks.pop(address >> 6, None)

    @property
    def hit_rate(self) -> float:
        return self.probe_hits / self.probes if self.probes else 0.0

    def __len__(self) -> int:
        return len(self._blocks)


class VictimProbeWrapper:
    """Wraps a BiModalCache, tracking would-be victim-cache hits.

    Evictions feed the buffer; every DRAM cache miss probes it. The
    wrapper is measurement-only (it does not short-circuit misses), so
    the wrapped cache's behaviour is unchanged and the probe hit rate is
    exactly the paper's "benefit of retaining evicted blocks" quantity.
    """

    def __init__(self, cache: BiModalCache, *, entries: int = 512) -> None:
        self.cache = cache
        self.buffer = VictimBuffer(entries)
        self._hook_evictions()

    def _hook_evictions(self) -> None:
        original = self.cache._handle_evictions

        def hooked(set_index, evictions, now):
            am = self.cache.addr_map
            for record in evictions:
                base = am.rebuild(record.tag, set_index, record.sub_offset)
                if record.big:
                    for sub in range(self.cache.smalls_per_big):
                        self.buffer.insert(
                            am.rebuild(record.tag, set_index, sub)
                        )
                else:
                    self.buffer.insert(base)
            original(set_index, evictions, now)

        self.cache._handle_evictions = hooked

    def access_fast(self, address: int, now: int, is_write: bool = False) -> int:
        """Flat drive-loop entry point (mirrors DRAMCacheBase.access_fast)."""
        complete = self.cache.access_fast(address, now, is_write)
        if not self.cache._hit:
            self.buffer.probe(address)
        else:
            self.buffer.remove(address)
        return complete

    @property
    def victim_hit_fraction(self) -> float:
        """Fraction of DRAM cache misses a victim cache would convert."""
        return self.buffer.hit_rate

    # -- delegation so the wrapper drops into drive_cache unchanged -----
    def stats_snapshot(self) -> dict:
        snap = self.cache.stats_snapshot()
        snap["victim_hit_fraction"] = self.victim_hit_fraction
        snap["victim_insertions"] = self.buffer.insertions
        return snap

    def reset_stats(self) -> None:
        self.cache.reset_stats()
