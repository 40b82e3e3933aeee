"""The Bi-Modal DRAM cache (the paper's contribution, Section III).

Orchestrates the four mechanisms over the stacked-DRAM substrate:

1. **bi-modal sets** — each set holds X big (512 B) + Y small (64 B)
   blocks and drifts toward the cache-wide preferred state via Table II
   replacement actions;
2. **block size predictor** — set-sampled utilization tracking trains a
   2-bit counter table that sizes each miss's fill;
3. **way locator** — a small exact-match SRAM table that converts >90% of
   accesses into a single DRAM data access with no metadata read;
4. **metadata-in-DRAM** — tags live in a dedicated metadata bank on
   another channel and are read (2 bursts) concurrently with the
   anticipatory activation of the data row.

Feature flags reproduce the paper's component analysis (Figure 8a):
``enable_bimodal=False`` gives *Way-Locator-Only* (fixed 512 B blocks);
``enable_way_locator=False`` gives *Bi-Modal-Only*; both False is a plain
fixed-512B tags-in-DRAM cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.addressing import AddressMap
from repro.common.config import DRAMCacheGeometry
from repro.common.stats import Counter, Histogram, RateStat
from repro.dram.controller import MemoryController
from repro.dramcache.base import DRAMCacheBase
from repro.bimodal.dueling import SetDuelingController
from repro.bimodal.global_state import GlobalStateController
from repro.bimodal.metadata import MetadataLayout
from repro.bimodal.sets import BiModalSet, EvictedBlock, allowed_states
from repro.bimodal.size_predictor import BlockSizePredictor, UtilizationTracker
from repro.bimodal.way_locator import WayLocator

__all__ = ["BiModalConfig", "BiModalCache"]

_TAG_COMPARE_CYCLES = 1
_META_UPDATE_BATCH = 16  # coalesced metadata-update drain granularity


@dataclass(frozen=True)
class BiModalConfig:
    """Tunables of the Bi-Modal organization (paper defaults)."""

    set_size: int = 2048
    big_block_size: int = 512
    address_bits: int = 40
    locator_index_bits: int = 14  # K (Table III: K=14 is the sweet spot)
    predictor_index_bits: int = 16  # P
    utilization_threshold: int = 5  # T
    adaptation_weight: float = 0.75  # W
    adaptation_interval: int = 1_000_000
    tracker_sample_every: int = 25  # ~4% of sets
    enable_bimodal: bool = True
    enable_way_locator: bool = True
    colocated_metadata: bool = False  # Fig. 9b ablation
    parallel_tag_data: bool = True  # serial-tag ablation
    controller: str = "demand"  # "demand" (paper) | "dueling" (extension)
    seed: int = 0


class BiModalCache(DRAMCacheBase):
    """Bi-modal, way-located, metadata-in-DRAM stacked cache."""

    name = "bimodal"

    def __init__(
        self,
        geometry: DRAMCacheGeometry,
        offchip: MemoryController,
        config: BiModalConfig | None = None,
    ) -> None:
        super().__init__(geometry, offchip)
        self.config = config or BiModalConfig()
        cfg = self.config
        self.addr_map = AddressMap(
            cache_size=geometry.capacity,
            set_size=cfg.set_size,
            block_size=cfg.big_block_size,
            address_bits=cfg.address_bits,
        )
        self.states = allowed_states(cfg.set_size, cfg.big_block_size)
        self.smalls_per_big = cfg.big_block_size // 64
        meta_bytes = 64 * (
            2 if cfg.set_size <= 2048 else 3
        )  # 18 tags -> 2 bursts; 36 tags -> 3 (Sec. III-D2)
        self.layout = MetadataLayout(
            num_sets=self.addr_map.num_sets,
            channels=geometry.geometry.channels,
            banks_per_channel=geometry.geometry.banks_per_channel,
            page_size=geometry.geometry.page_size,
            meta_bytes_per_set=meta_bytes,
            colocated=cfg.colocated_metadata,
        )
        self._sets: dict[int, BiModalSet] = {}
        self.locator = (
            WayLocator(
                cfg.locator_index_bits,
                address_bits=cfg.address_bits,
                set_index_bits=self.addr_map.set_index_bits,
                offset_bits=self.addr_map.offset_bits,
                max_ways=self.states[-1][0] + self.states[-1][1],
            )
            if cfg.enable_way_locator
            else None
        )
        self.predictor = BlockSizePredictor(
            cfg.predictor_index_bits, threshold=cfg.utilization_threshold
        )
        self.tracker = UtilizationTracker(
            self.predictor, sample_every=cfg.tracker_sample_every
        )
        if cfg.controller == "demand":
            self.global_ctrl = GlobalStateController(
                self.states,
                weight=cfg.adaptation_weight,
                interval=cfg.adaptation_interval,
                smalls_per_big=self.smalls_per_big,
            )
        elif cfg.controller == "dueling":
            self.global_ctrl = SetDuelingController(
                self.states,
                interval=cfg.adaptation_interval,
                smalls_per_big=self.smalls_per_big,
            )
        else:
            raise ValueError(f"unknown controller {cfg.controller!r}")
        if not cfg.enable_bimodal:
            self.global_ctrl.force_state(0)  # pinned (X, 0): fixed 512 B
        self._rng = random.Random(cfg.seed)
        # Access-path constants, hoisted out of the per-access hot loop.
        self._locator_latency = (
            self.locator.latency_cycles if self.locator is not None else 0
        )
        self._parallel_tags = cfg.parallel_tag_data and not cfg.colocated_metadata
        self._blocks_per_granule = max(1, 4096 // cfg.big_block_size)
        self._observe_leader = getattr(self.global_ctrl, "observe_leader", None)
        self._leader_rank = getattr(self.global_ctrl, "leader_rank", None)
        # Address-split fields and bound methods, flattened for the
        # per-access kernel (AddressMap stays the canonical definition;
        # resident() still goes through it).
        self._offset_bits = self.addr_map.offset_bits
        self._set_mask = self.addr_map._set_mask
        self._tag_shift = self.addr_map._tag_shift
        self._sub_mask = cfg.big_block_size - 1
        self._meta_bursts = self.layout.metadata_bursts
        self._dram_fast = self.dram.access_direct_fast
        # The global-state interval clock: every access ticks it, and the
        # controller adapts (or elects) each time it wraps.
        self._interval = self.global_ctrl.interval
        self._interval_ticks = 0
        # Location tables, fully materialized: one flat list lookup per
        # access instead of a memoized method call. num_sets is a few
        # thousand entries even at full capacity.
        num_sets = self.addr_map.num_sets
        self._data_locs = [self.layout.data_location(i) for i in range(num_sets)]
        self._meta_locs = [self.layout.metadata_location(i) for i in range(num_sets)]
        # --- instrumentation -------------------------------------------
        self.metadata_rbh = RateStat()  # tag-read row-buffer hits (Fig 9b)
        self.small_access = RateStat()  # hit = access served by small block
        self.small_fills = Counter()
        self.big_fills = Counter()
        self.small_pred_overridden = Counter()
        self.utilization_hist = Histogram()  # evicted big-block utilization
        self.set_state_transitions = Counter()
        self.metadata_updates = 0
        self._pending_meta_updates = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _block_key(self, set_index: int, tag: int) -> int:
        """Predictor key: the tag+set bits above the 4 KB boundary.

        Drawing the index bits from above the 4 KB granule (rather than
        the full block number) makes blocks of the same data structure
        share a predictor entry, so one sampled eviction trains the size
        decision for its whole neighbourhood — the generalization the
        paper's P-bits-of-tag+set indexing relies on.
        """
        block_number = (tag << self.addr_map.set_index_bits) | set_index
        return block_number // self._blocks_per_granule

    def _target_rank(self, set_index: int) -> int:
        """The (X, Y) rank this set should drift toward.

        Under set dueling, leader sets stay pinned to their candidate
        state; followers (and all sets under the demand controller) use
        the cache-wide elected/adapted rank.
        """
        leader = self._leader_rank
        if leader is not None:
            pinned = leader(set_index)
            if pinned is not None:
                return pinned
        return self.global_ctrl.rank

    def _victim_chooser(self, candidates, protected) -> int:
        """Random-not-recent: avoid the top-2 MRU ways when possible."""
        pool = [w for w in candidates if w not in protected] or list(candidates)
        return pool[self._rng.randrange(len(pool))]

    def _read_metadata(self, set_index: int, now: int) -> int:
        """Tag-array read from the metadata bank; returns tags-known time."""
        channel, bank, row = self._meta_locs[set_index]
        end = self._dram_fast(channel, bank, row, now, self._meta_bursts)
        rbh = self.metadata_rbh
        if self.dram.last_outcome == 0:
            rbh.hits += 1
        else:
            rbh.misses += 1
        return end + _TAG_COMPARE_CYCLES

    def _touch_metadata(self, set_index: int, now: int) -> None:
        """Posted metadata update (dirty bits / fills); off critical path.

        Updates are write-coalesced: the controller buffers them and
        drains a batch row-by-row when the bus is idle (standard write
        buffering under FR-FCFS), so they cost amortized bandwidth on the
        metadata bank without thrashing the open row between tag reads.
        One batched drain is charged per ``_META_UPDATE_BATCH`` updates,
        deferred to its stamp time like every posted operation.
        """
        self.metadata_updates += 1
        self._pending_meta_updates += 1
        if self._pending_meta_updates >= _META_UPDATE_BATCH:
            self._pending_meta_updates = 0
            channel, bank, row = self._meta_locs[set_index]
            self._post_call(
                now,
                self._dram_fast,
                channel, bank, row, now, _META_UPDATE_BATCH // 4,
            )

    def _handle_evictions(
        self, set_index: int, evictions: list[EvictedBlock], now: int
    ) -> None:
        for record in evictions:
            if record.dirty_bursts:
                victim_addr = self.addr_map.rebuild(
                    record.tag, set_index, record.sub_offset
                )
                self._writeback_offchip(victim_addr, now, bursts=record.dirty_bursts)
            if record.big:
                self._account_waste(record.unused_sub_blocks)
                self.utilization_hist.add(record.utilization)
                self.tracker.observe_eviction(
                    set_index, self._block_key(set_index, record.tag), record.utilization
                )
            if self.locator is not None:
                self.locator.invalidate(
                    set_index, record.tag, record.sub_offset, is_big=record.big
                )

    # ------------------------------------------------------------------
    # Table II replacement
    # ------------------------------------------------------------------
    def _allocate(
        self, entry: BiModalSet, set_index: int, tag: int, sub: int, predicted_big: bool
    ) -> tuple[bool, int, list[EvictedBlock]]:
        """Apply Table II; returns (is_big, way, evictions)."""
        evictions: list[EvictedBlock] = []
        set_rank = entry.state_rank()
        glob_rank = self._target_rank(set_index)

        if predicted_big:
            if set_rank > glob_rank:
                # Set has more small ways than the global state wants:
                # evict 8 small blocks, reclaim a big way, insert there.
                evictions.extend(entry.grow_big())
                self.set_state_transitions.add()
            way, more = entry.allocate_big(tag, self._victim_chooser)
            evictions.extend(more)
            return True, way, evictions

        # predicted small
        if set_rank < glob_rank:
            # Set has more big ways than preferred: convert one.
            evictions.extend(entry.grow_small())
            self.set_state_transitions.add()
        if entry.y == 0:
            # Aligned at the all-big state: there is no small way to
            # replace, so the fill proceeds as a big block (the demand
            # counters will move the global state if this persists).
            self.small_pred_overridden.add()
            way, more = entry.allocate_big(tag, self._victim_chooser)
            evictions.extend(more)
            return True, way, evictions
        way, more = entry.allocate_small(tag, sub, self._victim_chooser)
        evictions.extend(more)
        return False, way, evictions

    def resident(self, address: int) -> bool:
        """State-only residency probe (prefetch bypass support)."""
        am = self.addr_map
        entry = self._sets.get(am.set_index(address))
        if entry is None:
            return False
        return entry.lookup(am.tag(address), am.sub_block(address)) is not None

    # ------------------------------------------------------------------
    # the access path (Section III-D)
    # ------------------------------------------------------------------
    def _access_fast(self, address: int, now: int, is_write: bool) -> int:
        """One access (the base class's scheme hook).

        The way-locator hit branch serves >90% of warm accesses, so it is
        written out flat: it inlines ``WayLocator.lookup`` (kept as the
        reference definition; ``tests/bimodal/test_cache.py`` checks the
        two agree access by access), and
        :meth:`_record_block_touch`, ``BiModalSet.touch_mru`` and
        ``small_access.record``, which the cold path calls. A locator miss
        continues in :meth:`_access_cold`.
        """
        ticks = self._interval_ticks + 1
        if ticks >= self._interval:
            self._interval_ticks = 0
            self.global_ctrl.end_interval()
        else:
            self._interval_ticks = ticks
        set_index = (address >> self._offset_bits) & self._set_mask
        tag = address >> self._tag_shift
        sub = (address & self._sub_mask) >> 6
        sets = self._sets
        entry = sets.get(set_index)
        if entry is None:
            entry = BiModalSet(self.states, smalls_per_big=self.smalls_per_big)
            sets[set_index] = entry
        t_after_locator = now + self._locator_latency

        # -- 1. way locator (inlined WayLocator.lookup) --------------------
        locator = self.locator
        if locator is not None:
            tick = locator._tick + 1
            locator._tick = tick
            combined = (tag << locator.set_index_bits) | set_index
            loc_key = combined >> locator.index_bits
            for loc_entry in locator._table[combined & locator._mask]:
                if loc_entry.key != loc_key:
                    continue
                is_big = loc_entry.is_big
                if not is_big and loc_entry.sub_offset != sub:
                    continue
                loc_entry.last_use = tick
                locator.lookups.hits += 1
                way = loc_entry.way
                observe = self._observe_leader
                if observe is not None:
                    observe(set_index, miss=False)
                # Inline of _record_block_touch.
                if is_big:
                    block = entry.big_ways[way]
                    if block is None:
                        raise RuntimeError("way locator pointed at an empty big way")
                    bit = 1 << sub
                    block.used_mask |= bit
                    if is_write:
                        block.dirty_mask |= bit
                else:
                    small = entry.small_ways[way]
                    if small is None:
                        raise RuntimeError("way locator pointed at an empty small way")
                    if is_write:
                        small.dirty = True
                # Inline of BiModalSet.touch_mru.
                mru = entry._mru
                mru_key = (is_big, way)
                if mru_key in mru:
                    mru.remove(mru_key)
                mru.insert(0, mru_key)
                del mru[2:]
                small_access = self.small_access
                if is_big:
                    small_access.misses += 1
                else:
                    small_access.hits += 1
                channel, bank, row = self._data_locs[set_index]
                data_end = self._dram_fast(channel, bank, row, t_after_locator, 1)
                if is_write:
                    # dirty-bit update in the metadata bank, posted
                    self._touch_metadata(set_index, data_end)
                self._hit = True
                return data_end
            locator.lookups.misses += 1

        return self._access_cold(
            address, set_index, tag, sub, entry, t_after_locator, is_write
        )

    def _access_cold(
        self,
        address: int,
        set_index: int,
        tag: int,
        sub: int,
        entry: BiModalSet,
        t_after_locator: int,
        is_write: bool,
    ) -> int:
        """Locator-miss continuation of :meth:`_access_fast`."""
        locator = self.locator
        # -- 2. metadata read (+ concurrent data-row activation) ----------
        tags_known = self._read_metadata(set_index, t_after_locator)
        data_channel, data_bank, data_row = self._data_locs[set_index]
        if self._parallel_tags:
            self.dram.activate_direct(
                data_channel, data_bank, data_row, t_after_locator
            )

        found = entry.lookup(tag, sub)
        if found is not None:
            is_big, way = found
            self._observe_outcome(set_index, miss=False)
            self._record_block_touch(entry, is_big, way, sub, is_write)
            self.small_access.record(not is_big)
            if locator is not None:
                locator.insert(set_index, tag, sub, is_big=is_big, way=way)
            self._hit = True
            if self._parallel_tags:
                return self.dram.column_direct_fast(data_channel, data_bank, tags_known)
            return self._dram_fast(data_channel, data_bank, data_row, tags_known, 1)

        # -- 3. DRAM cache miss --------------------------------------------
        self._observe_outcome(set_index, miss=True)
        block_key = self._block_key(set_index, tag)
        predicted_big = (
            self.predictor.predict_big(block_key)
            if self.config.enable_bimodal
            else True
        )
        self.global_ctrl.record_miss(predicted_big=predicted_big)

        is_big, way, evictions = self._allocate(
            entry, set_index, tag, sub, predicted_big
        )
        fetch_addr = (address & ~self._sub_mask) if is_big else (address & ~63)
        bursts = self.smalls_per_big if is_big else 1
        fetch_end = self._fetch_offchip(fetch_addr, tags_known, bursts=bursts)

        self._handle_evictions(set_index, evictions, fetch_end)
        (self.big_fills if is_big else self.small_fills).add()
        self.small_access.record(not is_big)

        # install + touch the new block
        if is_big:
            block = entry.big_ways[way]
            block.touch(sub, is_write=is_write)
        else:
            small = entry.small_ways[way]
            small.dirty = is_write
        entry.touch_mru(is_big, way)
        if locator is not None:
            locator.insert(set_index, tag, sub, is_big=is_big, way=way)

        # posted fill into the data row + metadata update
        self._post_call(
            fetch_end,
            self._dram_fast,
            data_channel, data_bank, data_row, fetch_end, bursts,
        )
        self._touch_metadata(set_index, fetch_end)
        self._hit = False
        return fetch_end

    def _observe_outcome(self, set_index: int, *, miss: bool) -> None:
        observe = self._observe_leader
        if observe is not None:
            observe(set_index, miss=miss)

    def _record_block_touch(
        self, entry: BiModalSet, is_big: bool, way: int, sub: int, is_write: bool
    ) -> None:
        if is_big:
            block = entry.big_ways[way]
            if block is None:
                raise RuntimeError("way locator pointed at an empty big way")
            block.touch(sub, is_write=is_write)
        else:
            small = entry.small_ways[way]
            if small is None:
                raise RuntimeError("way locator pointed at an empty small way")
            if is_write:
                small.dirty = True
        entry.touch_mru(is_big, way)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def way_locator_hit_rate(self) -> float:
        return self.locator.hit_rate if self.locator is not None else 0.0

    def small_block_access_fraction(self) -> float:
        """Fraction of accesses served by / filled as small blocks (Fig 10)."""
        return self.small_access.rate

    def space_utilization(self) -> float:
        """Referenced bytes / committed bytes across resident sets."""
        resident = sum(s.resident_bytes() for s in self._sets.values())
        used = sum(s.used_bytes() for s in self._sets.values())
        return used / resident if resident else 0.0

    def average_tag_latency(self) -> float:
        """Average tag access latency (Section III-D4's t_tag_access)."""
        if self.locator is None or not self.locator.lookups.total:
            return 0.0
        hit_rate = self.locator.hit_rate
        t_hit = self.locator.latency_cycles
        # t_tag_miss from the measured metadata RBH and DRAM timings.
        t = self.geometry.timing
        bursts = self.layout.metadata_bursts
        col = t.cl + bursts * t.burst_cycles
        rbh = self.metadata_rbh.rate
        t_miss = rbh * col + (1 - rbh) * (t.trp + t.trcd + col)
        return hit_rate * t_hit + (1 - hit_rate) * t_miss

    def reset_stats(self) -> None:
        super().reset_stats()
        self.metadata_rbh.reset()
        self.small_access.reset()
        self.small_fills.reset()
        self.big_fills.reset()
        self.small_pred_overridden.reset()
        self.utilization_hist.reset()
        self.set_state_transitions.reset()
        self.metadata_updates = 0
        self.predictor.accuracy.reset()
        if self.locator is not None:
            self.locator.lookups.reset()

    def stats_snapshot(self) -> dict[str, float]:
        snap = super().stats_snapshot()
        snap.update(
            {
                "way_locator_hit_rate": self.way_locator_hit_rate,
                "metadata_rbh": self.metadata_rbh.rate,
                "small_access_fraction": self.small_block_access_fraction(),
                "big_fills": self.big_fills.value,
                "small_fills": self.small_fills.value,
                "space_utilization": self.space_utilization(),
                "avg_tag_latency": self.average_tag_latency(),
                "predictor_accuracy": self.predictor.accuracy.rate,
                "global_state": self.global_ctrl.state,
            }
        )
        return snap
