"""Device tests: address interleaving and direct (cache-managed) access."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice
from tests.dram.oracle import decode

GEOMETRY = DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048)


@pytest.fixture
def device():
    return DRAMDevice(GEOMETRY, DRAMTimingConfig.ddr3_1600h())


class TestDecode:
    """The interleaving formula that the device's placement is checked
    against (``test_kernel_validation``, ``test_tail_trains_follow_decode``)."""

    def test_consecutive_blocks_share_row(self):
        """Column bits sit below the channel bits, so a 512B span stays
        in one row (big-block fetches need a single activation)."""
        locs = [decode(GEOMETRY, 0x10000 + 64 * i) for i in range(8)]
        assert len({(l.channel, l.bank, l.row) for l in locs}) == 1
        assert [l.column for l in locs] == list(range(locs[0].column, locs[0].column + 8))

    def test_rows_interleave_channels(self):
        page = 2048
        a = decode(GEOMETRY, 0x0)
        b = decode(GEOMETRY, page)
        assert a.channel != b.channel

    def test_fields_in_range(self):
        loc = decode(GEOMETRY, (1 << 33) + 12345)
        assert 0 <= loc.channel < 2
        assert 0 <= loc.bank < 8
        assert loc.row >= 0

    @given(address=st.integers(min_value=0, max_value=(1 << 34) - 1))
    def test_decode_total(self, address):
        loc = decode(GEOMETRY, address)
        assert 0 <= loc.channel < GEOMETRY.channels
        assert 0 <= loc.bank < GEOMETRY.banks_per_channel
        assert 0 <= loc.column < GEOMETRY.page_size // 64


@given(
    channels=st.integers(1, 5),
    banks=st.integers(1, 9),
    page_size=st.sampled_from([512, 2048]),
    address=st.integers(0, 1 << 24),
    bursts=st.integers(1, 70),
)
def test_tail_trains_follow_decode(channels, banks, page_size, address, bursts):
    """``tail_trains`` groups beats 1.. of a fetch by the row that
    ``decode`` places each beat in, in beat order."""
    geometry = DRAMGeometry(
        channels=channels, banks_per_channel=banks, page_size=page_size
    )
    device = DRAMDevice(geometry, DRAMTimingConfig.ddr3_1600h())
    beats = [
        (loc.channel, loc.bank, loc.row)
        for loc in (decode(geometry, address + 64 * i) for i in range(1, bursts))
    ]
    trains = device.tail_trains(address, bursts)
    assert [(c, b, r) for c, b, r, n in trains for _ in range(n)] == beats
    assert all(a[:3] != b[:3] for a, b in zip(trains, trains[1:]))


class TestTimedAccess:
    def test_read_accounting(self, device):
        end = device.read_fast(0x1000, 0, 8)
        assert device.bytes_transferred == 512
        assert end - device.last_data_start == 8 * device.timings.burst_cycles

    def test_big_fetch_single_activation(self, device):
        device.read_fast(0x10000, 0, 8)
        assert device.total_activations() == 1

    def test_write_uses_row_buffer(self, device):
        device.read_fast(0x10000, 0)
        device.write_fast(0x10000 + 64, 500)
        assert device.last_outcome == 0
        assert device.row_buffer_hit_rate() == pytest.approx(0.5)

    def test_direct_access_bypasses_decode(self, device):
        device.access_direct_fast(1, 3, 42, 0, 2)
        assert device.bytes_transferred == 128
        device.access_direct_fast(1, 3, 42, 1000)
        assert device.last_outcome == 0  # row 42 stayed open in (1, 3)
        assert device._activations[1 * 8 + 3] == 1

    def test_activate_then_column_direct(self, device):
        t = device.timings
        ready = device.activate_direct(0, 0, 9, now=0)
        assert ready == t.trcd
        end = device.column_direct_fast(0, 0, ready)
        assert device.last_data_start == ready + t.cl
        assert end == ready + t.cl + t.burst_cycles
        assert device.total_activations() == 1
        assert device.row_buffer_hit_rate() == 0.0  # no row-buffer event

    def test_reset_stats(self, device):
        device.read_fast(0x1000, 0)
        device.reset_stats()
        assert device.bytes_transferred == 0
        assert device.total_activations() == 0
        assert device.row_buffer_hit_rate() == 0.0


def test_non_power_of_two_channels_wrap():
    geo = DRAMGeometry(channels=3, banks_per_channel=4, page_size=2048)
    device = DRAMDevice(geo, DRAMTimingConfig.ddr3_1600h())
    busy = [0] * 3
    for i in range(64):
        loc = decode(geo, i * 2048)
        assert 0 <= loc.channel < 3
        device.read_fast(i * 2048, 0)
        busy[loc.channel] += device.timings.burst_cycles
        assert device._bus_busy == busy
