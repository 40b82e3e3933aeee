"""Per-channel timing of the device: bus serialization, multi-burst transfers."""

import pytest

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice


@pytest.fixture
def timings():
    return DRAMTimingConfig.stacked()


@pytest.fixture
def channel(timings):
    return DRAMDevice(
        DRAMGeometry(channels=1, banks_per_channel=4, page_size=2048), timings
    )


class TestBasicAccess:
    def test_single_burst_latency(self, channel, timings):
        end = channel.access_direct_fast(0, 0, 1, now=0)
        assert end == timings.trcd + timings.cl + timings.burst_cycles
        assert channel.bytes_transferred == 64

    def test_multi_burst_occupies_bus(self, channel, timings):
        end = channel.access_direct_fast(0, 0, 1, 0, 8)
        assert end - channel.last_data_start == 8 * timings.burst_cycles

    def test_transfer_cycles_override(self, channel, timings):
        end = channel.access_direct_fast(0, 0, 1, 0, transfer_cycles=5)
        assert end - channel.last_data_start == 5
        assert channel._bus_busy == [5]


class TestBusSerialization:
    def test_bank_parallel_but_bus_serial(self, channel, timings):
        """Two banks can overlap ACT/CAS but share the data bus."""
        a_end = channel.access_direct_fast(0, 0, 1, now=0)
        channel.access_direct_fast(0, 1, 1, now=0)
        # Same issue time, same core latency, but b's transfer is pushed
        # behind a's on the bus.
        assert channel.last_data_start >= a_end

    def test_bus_busy_accounting(self, channel, timings):
        channel.access_direct_fast(0, 0, 1, 0, 2)
        assert channel._bus_busy == [2 * timings.burst_cycles]

    def test_bus_idle_gap_not_counted(self, channel, timings):
        channel.access_direct_fast(0, 0, 1, now=0)
        channel.access_direct_fast(0, 0, 1, now=10_000)
        assert channel._bus_busy == [2 * timings.burst_cycles]


class TestActivatePlusColumn:
    def test_column_after_activate(self, channel, timings):
        ready = channel.activate_direct(0, 2, 9, now=0)
        end = channel.column_direct_fast(0, 2, now=ready)
        assert end == ready + timings.cl + timings.burst_cycles

    def test_parallel_tag_data_pattern(self, channel, timings):
        """The Bi-Modal locator-miss pattern: tag read on one bank while
        the data row opens on another; data column issues after tags."""
        tag_end = channel.access_direct_fast(0, 0, 1, 0, 2)
        channel.activate_direct(0, 1, 2, now=0)
        data_end = channel.column_direct_fast(0, 1, now=tag_end + 1)
        # The data access pays only CAS + transfer after the tag check.
        assert data_end - (tag_end + 1) <= timings.cl + 2 * timings.burst_cycles


class TestRBH:
    def test_row_buffer_hit_rate_aggregates_banks(self, channel):
        channel.access_direct_fast(0, 0, 1, now=0)
        channel.access_direct_fast(0, 0, 1, now=500)
        channel.access_direct_fast(0, 1, 2, now=1000)
        assert channel.row_buffer_hit_rate() == pytest.approx(1 / 3)

    def test_reset(self, channel):
        channel.access_direct_fast(0, 0, 1, now=0)
        channel.reset_stats()
        assert channel.row_buffer_hit_rate() == 0.0
        assert channel._bus_busy == [0]


def test_build_channels():
    """Each channel has its own banks and bus: the same access issued on
    every channel at once is uncontended on each."""
    timings = DRAMTimingConfig.stacked()
    device = DRAMDevice(
        DRAMGeometry(channels=3, banks_per_channel=4, page_size=2048), timings
    )
    for ch in range(3):
        end = device.access_direct_fast(ch, 3, 1, now=0)
        assert end == timings.trcd + timings.cl + timings.burst_cycles
    assert device._bus_busy == [timings.burst_cycles] * 3


def test_channel_requires_banks():
    with pytest.raises(ValueError):
        DRAMDevice(
            DRAMGeometry(channels=1, banks_per_channel=0, page_size=2048),
            DRAMTimingConfig.stacked(),
        )
