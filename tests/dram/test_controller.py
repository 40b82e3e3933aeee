"""Main memory's controller role: the device's command queue and its
read/write accounting."""

import pytest

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import QUEUE_DEPTH, DRAMDevice
from tests.dram.oracle import decode


def make_controller():
    geo = DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048)
    return DRAMDevice(geo, DRAMTimingConfig.ddr3_1600h(), name="offchip")


class TestBasicOperation:
    def test_read_latency_recorded(self):
        mc = make_controller()
        end = mc.read_fast(0x4000, 0)
        assert end > 0
        assert mc.read_latency.count == 1
        assert mc.read_latency.total == end
        assert mc.reads == 1

    def test_writes_counted_separately(self):
        mc = make_controller()
        mc.write_fast(0x4000, 0)
        assert mc.writes == 1
        assert mc.reads == 0
        assert mc.read_latency.count == 0

    def test_burst_transfer_bytes(self):
        mc = make_controller()
        mc.read_fast(0x4000, 0, 8)
        assert mc.bytes_transferred == 512

    def test_open_page_row_hits(self):
        mc = make_controller()
        mc.read_fast(0x4000, 0)
        mc.read_fast(0x4040, 500)
        assert mc.row_buffer_hit_rate() == pytest.approx(0.5)


def _fill_queue(fast, count=QUEUE_DEPTH):
    """``count`` accesses at time 0 to one open row of bank 0: each is
    still in flight at time 0. Returns their completions.

    A channel's completions are at least a burst apart on its one data
    bus, so a request behind a full queue still ends when the bus frees;
    the window shows in when its bank issues (``_ready_at``).
    """
    return [fast(0x40 * (i % 32), 0) for i in range(count)]


class TestCommandQueue:
    def test_full_queue_delays_new_requests(self):
        mc = make_controller()
        t = mc.timings
        ends = _fill_queue(mc.read_fast, QUEUE_DEPTH - 1)
        # The last free entry: bank 1 (closed) issues on arrival.
        mc.read_fast(0x800, 0)
        assert mc._ready_at[1] == t.trcd + t.tccd
        # Queue full: bank 2 issues when the oldest read completes.
        mc.read_fast(0x1000, 0)
        assert mc._ready_at[2] == ends[0] + t.trcd + t.tccd

    def test_writes_share_the_queue(self):
        mc = make_controller()
        t = mc.timings
        ends = _fill_queue(mc.write_fast)
        mc.read_fast(0x800, 0)
        assert mc._ready_at[1] == ends[0] + t.trcd + t.tccd

    def test_direct_accesses_bypass_the_queue(self):
        """Tail beats reach the kernel past the window."""
        mc = make_controller()
        t = mc.timings
        _fill_queue(mc.read_fast)
        mc.access_direct_fast(0, 1, 0, 0)
        assert mc._ready_at[1] == t.trcd + t.tccd

    def test_deep_queue_no_delay(self):
        """Below the window the queue adds nothing to the kernel."""
        mc = make_controller()
        bare = make_controller()
        for address in (0x0000, 0x40000, 0x80000):
            loc = decode(mc.geometry, address)
            assert mc.read_fast(address, 0) == bare.access_direct_fast(
                loc.channel, loc.bank, loc.row, 0
            )

    def test_inflight_window_bounded(self):
        mc = make_controller()
        for i in range(5 * QUEUE_DEPTH):
            mc.read_fast(i * 0x10000, 0)
        # Bounded memory: the per-channel deque is trimmed.
        assert len(mc._inflight[0]) <= 4 * QUEUE_DEPTH


def test_reset_stats():
    mc = make_controller()
    mc.read_fast(0x4000, 0)
    mc.reset_stats()
    assert mc.reads == 0
    assert mc.read_latency.count == 0
    assert mc.bytes_transferred == 0


def test_reset_stats_keeps_the_queue():
    """A warm-up reset clears counters, not requests still in flight."""
    mc = make_controller()
    t = mc.timings
    ends = _fill_queue(mc.read_fast)
    mc.reset_stats()
    mc.read_fast(0x800, 0)
    assert mc._ready_at[1] == ends[0] + t.trcd + t.tccd
