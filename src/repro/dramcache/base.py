"""Common contract for all DRAM cache organizations.

Every organization (AlloyCache, Loh-Hill, ATCache, Footprint Cache and the
Bi-Modal cache) plugs between the LLSC and off-chip memory and exposes one
operation: :meth:`DRAMCacheBase.access`. The returned completion time *is*
the LLSC miss penalty the paper's Figure 8(c) compares; hit/miss, off-chip
traffic and wasted-fetch accounting use one shared stats vocabulary so the
harness can tabulate all schemes uniformly.

Per access a cache tracks its hit or miss and, for a read, the count
and total latency of ``hit_latency`` or ``miss_latency``; their pooled
mean is ``avg_read_latency``. Off-chip bytes are counted per transfer.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Callable

from repro.common.config import DRAMCacheGeometry
from repro.common.addressing import SUB_BLOCK_BITS
from repro.common.stats import MeanStat, RateStat
from repro.dram.controller import MemoryController
from repro.dram.device import DRAMDevice

__all__ = ["DRAMCacheAccess", "DRAMCacheBase"]


@dataclass(slots=True)
class DRAMCacheAccess:
    """Outcome of one LLSC-miss access to the DRAM cache."""

    hit: bool
    start: int
    complete: int

    @property
    def latency(self) -> int:
        return self.complete - self.start


class DRAMCacheBase(ABC):
    """Shared state and accounting for DRAM cache organizations.

    Subclasses implement :meth:`_access_fast` and use the provided
    ``self.dram`` (stacked device) and ``self.offchip`` (memory
    controller) plus the accounting helpers.
    """

    name = "base"

    def __init__(
        self,
        geometry: DRAMCacheGeometry,
        offchip: MemoryController,
    ) -> None:
        self.geometry = geometry
        self.offchip = offchip
        self.dram = DRAMDevice(
            geometry.geometry, geometry.timing, name=f"{self.name}-stack"
        )
        self.hit_stat = RateStat()
        self.hit_latency = MeanStat()
        self.miss_latency = MeanStat()
        # Off-chip traffic accounting (bytes).
        self.offchip_fetched_bytes = 0
        self.offchip_writeback_bytes = 0
        self.offchip_wasted_bytes = 0  # fetched but never referenced
        self.bypassed_accesses = 0
        # Deferred (posted) operations: fills, writebacks and metadata
        # updates complete in the future relative to the access that
        # produced them. They are queued as (when, seq, func, args)
        # tuples — no closure allocation on the hot path — and executed
        # once simulation time reaches their stamp, so a fill scheduled
        # for t+300 can never retroactively block a request that
        # arrives at t+10. An entry whose func is None is a train of
        # off-chip tail beats (see _fetch_offchip).
        self._pending: list[tuple[int, int, Callable[..., object] | None, tuple]] = []
        self._pending_seq = 0
        # Fast-path scratch: hit/miss of the access in flight, set by
        # the subclass inside _access_fast before it returns.
        self._hit = False
        # Hoisted off-chip helpers for the tail trains: the beat spread,
        # the device's address split (row-rank-bank-mc-column mask/shift
        # fields, as DRAMDevice.decode applies them) and its kernel.
        device = offchip.device
        self._offchip_spread = device.timings.burst_cycles
        self._offchip_split = (
            device._column_mask, device._column_bits, device._channel_mask,
            device._channel_bits, device._nch, device._bank_mask, device._bank_bits, device._nbk,
        )
        self._offchip_access = device.access_direct_fast

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def access(
        self, address: int, now: int, *, is_write: bool = False
    ) -> DRAMCacheAccess:
        """Serve one LLSC miss (read) or LLSC writeback (write).

        Rich wrapper over :meth:`access_fast`: every scheme starts its
        access at the request time, so the record is reconstructed
        exactly from the fast path's plain-int result.
        """
        complete = self.access_fast(address, now, is_write)
        return DRAMCacheAccess(self._hit, now, complete)

    def access_fast(self, address: int, now: int, is_write: bool = False) -> int:
        """Flat access path: returns the completion time as a plain int.

        A read adds its latency to the hit or the miss mean, which feed
        the average-LLSC-miss-penalty comparison; writes are posted (they
        occupy resources but their completion does not stall the core).
        The hit/miss of the access is left in ``self._hit`` by the
        scheme's ``_access_fast``.
        """
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._drain_posted(now)
        complete = self._access_fast(address, now, is_write)
        if self._hit:
            self.hit_stat.hits += 1
            mean = self.hit_latency
        else:
            self.hit_stat.misses += 1
            mean = self.miss_latency
        if not is_write:
            mean.count += 1
            mean.total += complete - now
        return complete

    @abstractmethod
    def _access_fast(self, address: int, now: int, is_write: bool) -> int:
        """Organization-specific access path (flat).

        Returns the completion time and must set ``self._hit`` to the
        access's hit/miss outcome before returning. Every access starts
        at the request time ``now``; :meth:`access` relies on that to
        rebuild the rich :class:`DRAMCacheAccess` record.
        """

    # ------------------------------------------------------------------
    # shared helpers for subclasses
    # ------------------------------------------------------------------
    def _post_call(self, when: int, func: Callable[..., object], *args) -> None:
        """Queue ``func(*args)`` to execute at simulation time ``when``.

        Allocation-light posting: the heap entry is a plain tuple, so the
        hot path never builds a closure. ``seq`` breaks ties FIFO and
        guarantees the heap never compares the callables.
        """
        heapq.heappush(self._pending, (when, self._pending_seq, func, args))
        self._pending_seq += 1

    def _drain_posted(self, now: float) -> None:
        """Run every posted operation whose time has arrived.

        A tail train (func None, args ``(channel, bank, row, beats)``)
        stands for ``beats`` single-beat reads ``spread`` cycles apart
        whose sequence numbers follow its own. Its beats run back to
        back while the next one is due and still precedes the heap top
        in ``(when, seq)`` order; otherwise the rest goes back on the
        heap under the next beat's stamp. The device therefore sees
        the same reads in the same order as one entry per beat.
        """
        pending = self._pending
        pop = heapq.heappop
        while pending and pending[0][0] <= now:
            when, seq, func, args = pop(pending)
            if func is not None:
                func(*args)
                continue
            channel, bank, row, beats = args
            access = self._offchip_access
            spread = self._offchip_spread
            access(channel, bank, row, when, 1)
            while beats > 1:
                beats -= 1
                when += spread
                seq += 1
                if when > now or (pending and pending[0] < (when, seq)):
                    heapq.heappush(
                        pending, (when, seq, None, (channel, bank, row, beats))
                    )
                    break
                access(channel, bank, row, when, 1)

    def flush_posted(self) -> None:
        """Run every remaining posted operation, however far ahead.

        No drive calls this: a drive's stats cover the operations due
        by its last access. Tests call it to settle a cache's state.
        """
        self._drain_posted(math.inf)

    def _fetch_offchip(self, address: int, now: int, *, bursts: int) -> int:
        """Fetch ``bursts`` * 64 B from main memory.

        Critical-word-first with interleavable tail: the demand request
        moves only the critical 64 B beat (its completion unblocks the
        core); the remaining ``bursts - 1`` beats are posted behind it,
        one ``spread`` apart, so other requesters' demands can slot
        between them the way an FR-FCFS scheduler interleaves a long
        cacheline fill with competing traffic. Total bytes moved and
        bus occupancy are unchanged. The tail is posted as one train
        per off-chip row it touches, each holding the sequence numbers
        its beats would take as separate entries (see
        :meth:`_drain_posted`).
        """
        end = self.offchip.read_fast(address, now, 1)
        self.offchip_fetched_bytes += bursts * 64
        if bursts > 1:
            spread = self._offchip_spread
            (column_mask, column_bits, channel_mask, channel_bits, nch,
             bank_mask, bank_bits, nbk) = self._offchip_split
            pending = self._pending
            seq = self._pending_seq
            self._pending_seq = seq + bursts - 1
            beat = 1
            while beat < bursts:
                bits = (address >> SUB_BLOCK_BITS) + beat
                beats = min(bursts - beat, column_mask + 1 - (bits & column_mask))
                bits >>= column_bits
                channel = (bits & channel_mask) % nch
                bits >>= channel_bits
                train = (channel, (bits & bank_mask) % nbk, bits >> bank_bits, beats)
                heapq.heappush(pending, (end + beat * spread, seq, None, train))
                seq += beats
                beat += beats
        return end

    def _writeback_offchip(self, address: int, now: int, *, bursts: int) -> None:
        """Posted dirty writeback to main memory (deferred to ``now``)."""
        self.offchip_writeback_bytes += bursts * 64
        self._post_call(now, self.offchip.write_fast, address, now, bursts)

    def _account_waste(self, unused_sub_blocks: int) -> None:
        """Record fetched-but-never-referenced sub-blocks at eviction."""
        self.offchip_wasted_bytes += unused_sub_blocks * 64

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.hit_stat.rate

    @property
    def miss_rate(self) -> float:
        return self.hit_stat.miss_rate

    @property
    def avg_read_latency(self) -> float:
        """Average LLSC miss penalty in CPU cycles (paper Fig. 8c).

        Pooled exactly: both totals sum integer latencies far below 2**53.
        """
        hit, miss = self.hit_latency, self.miss_latency
        count = hit.count + miss.count
        return (hit.total + miss.total) / count if count else 0.0

    def offchip_traffic_bytes(self) -> int:
        return self.offchip_fetched_bytes + self.offchip_writeback_bytes

    def wasted_fraction(self) -> float:
        """Fraction of fetched bytes never referenced before eviction."""
        if not self.offchip_fetched_bytes:
            return 0.0
        return self.offchip_wasted_bytes / self.offchip_fetched_bytes

    def reset_stats(self) -> None:
        """Clear measurement state, keeping all cache contents/training.

        Used at the end of a warmup phase, mirroring the paper's
        fast-forward + warm-up protocol: statistics cover only the
        measured region of the run.
        """
        self.hit_stat.reset()
        self.hit_latency.reset()
        self.miss_latency.reset()
        self.offchip_fetched_bytes = 0
        self.offchip_writeback_bytes = 0
        self.offchip_wasted_bytes = 0
        self.bypassed_accesses = 0
        self.dram.reset_stats()
        self.offchip.reset_stats()

    def stats_snapshot(self) -> dict[str, float]:
        return {
            "accesses": self.hit_stat.total,
            "hit_rate": self.hit_rate,
            "avg_read_latency": self.avg_read_latency,
            "avg_hit_latency": self.hit_latency.mean,
            "avg_miss_latency": self.miss_latency.mean,
            "offchip_fetched_bytes": self.offchip_fetched_bytes,
            "offchip_writeback_bytes": self.offchip_writeback_bytes,
            "offchip_wasted_bytes": self.offchip_wasted_bytes,
            "wasted_fraction": self.wasted_fraction(),
            "stack_rbh": self.dram.row_buffer_hit_rate(),
        }

    def report_metrics(self, registry, *, prefix: str = "cache") -> None:
        """Copy finished counters into an observability registry.

        Pull-based tap: called at drive/span boundaries, never from the
        access hot path, so observability cannot perturb simulation
        results. Subclass snapshot extras flow through automatically.
        """
        registry.update(self.stats_snapshot(), prefix=prefix)
        registry.gauge(f"{prefix}.scheme", self.name)
        registry.add(f"{prefix}.hits_total", self.hit_stat.hits)
        registry.add(f"{prefix}.misses_total", self.hit_stat.misses)
        self.offchip.report_metrics(registry, prefix=f"{prefix}.offchip")
