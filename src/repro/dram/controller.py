"""Off-chip memory controller.

Models the paper's open-page controller (Table IV) at access
granularity:

* *open-page*: each bank keeps its row open after an access, so a
  request to the open row pays CAS only (:class:`DRAMDevice`);
* *in-order service at each bank*: a request waits for the bank's
  previous command; nothing is reordered, so a later row hit never
  overtakes an earlier row miss (no FR-FCFS scheduling);
* *a bounded in-flight window per channel* (the 256-entry command queue
  of Table IV): a request arriving at a full queue waits for the oldest
  in-flight access to complete;
* *bank/bus contention* is inherent in the bank busy-until and shared
  data-bus occupancy of the device.

It tracks each channel's in-flight completion times, its reads' count
and total latency (``read_latency``) and its writes' count. Reads and
writes share one queue model and reach the device by its own names.
"""

from __future__ import annotations

from collections import deque

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.common.stats import MeanStat
from repro.dram.device import DRAMDevice

__all__ = ["MemoryController"]


class MemoryController:
    """Timed front-end to an off-chip :class:`DRAMDevice`."""

    __slots__ = (
        "device",
        "_queue_depth",
        "_inflight",
        "_channel_shift",
        "_channel_mask",
        "_channels",
        "read_latency",
        "writes",
    )

    def __init__(
        self,
        geometry: DRAMGeometry,
        timings: DRAMTimingConfig,
        *,
        queue_depth: int = 256,
        name: str = "offchip",
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.device = DRAMDevice(geometry, timings, name=name)
        self._queue_depth = queue_depth
        self._inflight: list[deque[int]] = [deque() for _ in range(geometry.channels)]
        # A request joins the queue of the channel its address decodes to.
        self._channel_shift = self.device._cbr_shift
        self._channel_mask = self.device._channel_mask
        self._channels = geometry.channels
        self.read_latency = MeanStat()
        self.writes = 0

    def _queued(self, issue, address: int, now: int, bursts: int) -> int:
        """Run ``issue`` (a device access) through its channel's queue.

        A request arriving at a full queue waits for the oldest in-flight
        access to complete; its own completion then joins the queue.
        """
        channel = ((address >> self._channel_shift) & self._channel_mask) % self._channels
        queue = self._inflight[channel]
        while queue and queue[0] <= now:
            queue.popleft()
        depth = self._queue_depth
        if len(queue) >= depth:
            now = queue[len(queue) - depth]
        end = issue(address, now, bursts)
        queue.append(end)
        if len(queue) > 4 * depth:
            # Bound memory: drop the oldest half; they are long complete
            # relative to any future arrival that could consult them.
            for _ in range(2 * depth):
                queue.popleft()
        return end

    def read_fast(self, address: int, now: int, bursts: int = 1) -> int:
        """Read ``bursts`` * 64 B; returns the data-end time (flat path)."""
        end = self._queued(self.device.read_fast, address, now, bursts)
        mean = self.read_latency
        mean.count += 1
        mean.total += end - now
        return end

    def write_fast(self, address: int, now: int, bursts: int = 1) -> int:
        """Posted write: timing matters only for contention, not latency."""
        self.writes += 1
        return self._queued(self.device.write_fast, address, now, bursts)

    @property
    def reads(self) -> int:
        return self.read_latency.count

    @property
    def bytes_transferred(self) -> int:
        return self.device.bytes_transferred

    def row_buffer_hit_rate(self) -> float:
        return self.device.row_buffer_hit_rate()

    def reset_stats(self) -> None:
        self.device.reset_stats()
        self.read_latency.reset()
        self.writes = 0

    def report_metrics(self, registry, *, prefix: str = "offchip") -> None:
        """Pull-based observability tap (span boundaries, not hot path)."""
        registry.add(f"{prefix}.reads", self.reads)
        registry.add(f"{prefix}.writes", self.writes)
        registry.add(f"{prefix}.bytes", self.bytes_transferred)
        registry.gauge(f"{prefix}.rbh", self.row_buffer_hit_rate())
        registry.gauge(f"{prefix}.avg_read_latency", self.read_latency.mean)
