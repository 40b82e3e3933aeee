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
"""

from __future__ import annotations

from collections import deque

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.common.stats import RunningMean
from repro.dram.device import DRAMDevice

__all__ = ["MemoryController"]


class MemoryController:
    """Timed front-end to an off-chip :class:`DRAMDevice`."""

    __slots__ = (
        "device",
        "_queue_depth",
        "_inflight",
        "read_latency",
        "reads",
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
        self.read_latency = RunningMean()
        self.reads = 0
        self.writes = 0

    def _queue_delayed_time(self, channel: int, now: int) -> int:
        """Arrival time adjusted for command-queue occupancy."""
        queue = self._inflight[channel]
        while queue and queue[0] <= now:
            queue.popleft()
        if len(queue) >= self._queue_depth:
            now = queue[len(queue) - self._queue_depth]
        return now

    def _track(self, channel: int, completion: int) -> None:
        queue = self._inflight[channel]
        queue.append(completion)
        if len(queue) > 4 * self._queue_depth:
            # Bound memory: drop the oldest half; they are long complete
            # relative to any future arrival that could consult them.
            for _ in range(2 * self._queue_depth):
                queue.popleft()

    def read_fast(self, address: int, now: int, bursts: int = 1) -> int:
        """Read ``bursts`` * 64 B; returns the data-end time (flat path)."""
        channel = self.device.channel_of(address)
        start = self._queue_delayed_time(channel, now)
        end = self.device.read_fast(address, start, bursts)
        self._track(channel, end)
        self.reads += 1
        latency = end - now
        mean = self.read_latency
        mean.count += 1
        mean.total += latency
        if latency < mean.minimum:
            mean.minimum = latency
        if latency > mean.maximum:
            mean.maximum = latency
        return end

    def write_fast(self, address: int, now: int, bursts: int = 1) -> int:
        """Posted write: timing matters only for contention, not latency."""
        channel = self.device.channel_of(address)
        start = self._queue_delayed_time(channel, now)
        end = self.device.write_fast(address, start, bursts)
        self._track(channel, end)
        self.writes += 1
        return end

    @property
    def bytes_transferred(self) -> int:
        return self.device.bytes_transferred

    def row_buffer_hit_rate(self) -> float:
        return self.device.row_buffer_hit_rate()

    def reset_stats(self) -> None:
        self.device.reset_stats()
        self.read_latency.reset()
        self.reads = 0
        self.writes = 0

    def report_metrics(self, registry, *, prefix: str = "offchip") -> None:
        """Pull-based observability tap (span boundaries, not hot path)."""
        registry.add(f"{prefix}.reads", self.reads)
        registry.add(f"{prefix}.writes", self.writes)
        registry.add(f"{prefix}.bytes", self.bytes_transferred)
        registry.gauge(f"{prefix}.rbh", self.row_buffer_hit_rate())
        registry.gauge(f"{prefix}.avg_read_latency", self.read_latency.mean)
