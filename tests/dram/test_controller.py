"""Memory controller tests: queueing window and latency accounting."""

import pytest

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController


def make_controller(queue_depth=256):
    geo = DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048)
    return MemoryController(geo, DRAMTimingConfig.ddr3_1600h(), queue_depth=queue_depth)


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


class TestCommandQueue:
    def test_full_queue_delays_new_requests(self):
        mc = make_controller(queue_depth=2)
        t = mc.device.timings
        # Banks 0, 1 and 2: no bank conflict holds c back, so only the
        # window can delay it (without the delay c ends at b + burst).
        a = mc.read_fast(0x0000, 0)
        b = mc.read_fast(0x0800, 0)
        c = mc.read_fast(0x1000, 0)  # queue full: waits for oldest
        # c arrives at the oldest completion, then opens its row.
        assert c >= min(a, b) + t.trcd + t.cl + t.burst_cycles

    def test_deep_queue_no_delay(self):
        """Below the window the controller adds nothing to the device."""
        mc = make_controller(queue_depth=256)
        bare = make_controller(queue_depth=256).device
        for address in (0x0000, 0x40000, 0x80000):
            assert mc.read_fast(address, 0) == bare.read_fast(address, 0)

    def test_queue_depth_validation(self):
        with pytest.raises(ValueError):
            make_controller(queue_depth=0)

    def test_inflight_window_bounded(self):
        mc = make_controller(queue_depth=4)
        for i in range(200):
            mc.read_fast(i * 0x10000, 0)
        # Bounded memory: the per-channel deque is trimmed.
        assert len(mc._inflight[0]) <= 16 * 4


def test_reset_stats():
    mc = make_controller()
    mc.read_fast(0x4000, 0)
    mc.reset_stats()
    assert mc.reads == 0
    assert mc.read_latency.count == 0
    assert mc.bytes_transferred == 0
