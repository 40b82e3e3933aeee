"""Device tests: address interleaving and direct (cache-managed) access."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice


@pytest.fixture
def device():
    geo = DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048)
    return DRAMDevice(geo, DRAMTimingConfig.ddr3_1600h())


class TestDecode:
    def test_consecutive_blocks_share_row(self, device):
        """Column bits sit below the channel bits, so a 512B span stays
        in one row (big-block fetches need a single activation)."""
        locs = [device.decode(0x10000 + 64 * i) for i in range(8)]
        assert len({(l.channel, l.bank, l.row) for l in locs}) == 1
        assert [l.column for l in locs] == list(range(locs[0].column, locs[0].column + 8))

    def test_rows_interleave_channels(self, device):
        page = 2048
        a = device.decode(0x0)
        b = device.decode(page)
        assert a.channel != b.channel

    def test_fields_in_range(self, device):
        loc = device.decode((1 << 33) + 12345)
        assert 0 <= loc.channel < 2
        assert 0 <= loc.bank < 8
        assert loc.row >= 0

    @given(address=st.integers(min_value=0, max_value=(1 << 34) - 1))
    def test_decode_total(self, address):
        geo = DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048)
        device = DRAMDevice(geo, DRAMTimingConfig.ddr3_1600h())
        loc = device.decode(address)
        assert 0 <= loc.channel < geo.channels
        assert 0 <= loc.bank < geo.banks_per_channel
        assert 0 <= loc.column < geo.page_size // 64


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
    for i in range(64):
        loc = device.decode(i * 2048)
        assert 0 <= loc.channel < 3
