"""Per-bank timing of the device: row-buffer cases, anticipatory ACT, refresh.

A one-channel, one-bank :class:`DRAMDevice` isolates the bank: with a
single bank and single-burst transfers the data bus never delays an
access (tCCD equals one burst), so ``last_data_start - now`` is the
bank's core latency for an idle bank.
"""

import pytest

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice

HIT, CLOSED, CONFLICT = 0, 1, 2


@pytest.fixture
def timings() -> DRAMTimingConfig:
    return DRAMTimingConfig.stacked()


def _device(timings, banks: int = 1) -> DRAMDevice:
    return DRAMDevice(
        DRAMGeometry(channels=1, banks_per_channel=banks, page_size=2048), timings
    )


@pytest.fixture
def bank(timings) -> DRAMDevice:
    return _device(timings)


def access(device: DRAMDevice, row: int, now: int, bank: int = 0) -> tuple[int, int]:
    """(row outcome, data-start) of one single-burst access."""
    device.access_direct_fast(0, bank, row, now)
    return device.last_outcome, device.last_data_start


class TestRowBufferCases:
    def test_first_access_is_row_closed(self, bank, timings):
        outcome, start = access(bank, row=5, now=0)
        assert outcome == CLOSED
        assert start == timings.trcd + timings.cl

    def test_same_row_hits(self, bank, timings):
        access(bank, row=5, now=0)
        outcome, start = access(bank, row=5, now=1000)
        assert outcome == HIT
        assert start - 1000 == timings.cl

    def test_different_row_conflicts(self, bank, timings):
        access(bank, row=5, now=0)
        outcome, start = access(bank, row=6, now=1000)
        assert outcome == CONFLICT
        assert start - 1000 == timings.trp + timings.trcd + timings.cl

    def test_cas_commands_pipeline_at_tccd(self, bank, timings):
        """Open-row accesses pipeline: back-to-back row hits issue tCCD
        apart, well before the earlier access's data returns."""
        access(bank, row=5, now=0)  # opens the row (CAS at tRCD)
        _, first = access(bank, row=5, now=1000)
        _, second = access(bank, row=5, now=1001)
        assert second == first + timings.tccd
        assert second - timings.cl < first  # second CAS before first data

    def test_rbh_accounting(self, bank):
        access(bank, row=1, now=0)
        access(bank, row=1, now=1000)
        access(bank, row=2, now=2000)
        assert bank._rb_hits == [1]
        assert bank._rb_misses == [2]
        assert bank.row_buffer_hit_rate() == pytest.approx(1 / 3)

    def test_activation_precharge_counts(self, bank):
        access(bank, row=1, now=0)  # ACT
        access(bank, row=2, now=1000)  # PRE + ACT
        assert bank.total_activations() == 2
        assert bank.total_precharges() == 1


class TestAnticipatoryActivate:
    def test_activate_opens_row(self, bank, timings):
        ready = bank.activate_direct(0, 0, 7, now=0)
        assert ready == timings.trcd
        assert access(bank, row=7, now=ready)[0] == HIT

    def test_activate_same_row_is_free(self, bank, timings):
        bank.activate_direct(0, 0, 7, now=0)
        ready = bank.activate_direct(0, 0, 7, now=timings.trcd + 5)
        assert ready == timings.trcd + 5
        assert bank.total_activations() == 1

    def test_activate_conflicting_row_precharges(self, bank, timings):
        bank.activate_direct(0, 0, 7, now=0)
        ready = bank.activate_direct(0, 0, 8, now=1000)
        assert ready == 1000 + timings.trp + timings.trcd
        assert bank.total_precharges() == 1

    def test_column_after_activate(self, bank, timings):
        bank.activate_direct(0, 0, 7, now=0)
        end = bank.column_direct_fast(0, 0, now=timings.trcd)
        assert bank.last_data_start == timings.trcd + timings.cl
        assert end == timings.trcd + timings.cl + timings.burst_cycles
        assert bank.last_outcome == HIT

    def test_column_access_requires_open_row(self, bank):
        with pytest.raises(RuntimeError):
            bank.column_direct_fast(0, 0, now=0)

    def test_access_after_activate_is_row_hit(self, bank):
        bank.activate_direct(0, 0, 7, now=0)
        assert access(bank, row=7, now=100)[0] == HIT


class TestRefresh:
    def test_refresh_closes_row_without_stalling_idle_periods(self, timings):
        bank = _device(timings)
        access(bank, row=3, now=0)
        # Jump far past many refresh intervals: the access right after
        # must not pay for all the refreshes that happened while idle.
        later = timings.trefi * 100 + timings.trfc + 7
        outcome, start = access(bank, row=3, now=later)
        # Row was closed by refresh -> not a hit, and no stall.
        assert outcome == CLOSED
        assert start == later + timings.trcd + timings.cl
        assert bank._refreshes[0] >= 100

    def test_access_during_refresh_window_is_stalled(self, timings):
        bank = _device(timings)
        # Land exactly at the start of the first refresh.
        _, start = access(bank, row=1, now=timings.trefi)
        assert start == timings.trefi + timings.trfc + timings.trcd + timings.cl

    def test_refresh_offset_staggers(self, timings):
        """Bank 1 refreshes 97 cycles after bank 0, so an access at bank
        0's refresh instant stalls there but not on bank 1."""
        early = _device(timings, banks=2)
        late = _device(timings, banks=2)
        _, a = access(early, row=1, now=timings.trefi, bank=0)
        _, b = access(late, row=1, now=timings.trefi, bank=1)
        assert a > b
        assert b == timings.trefi + timings.trcd + timings.cl

    def test_reset_stats(self, bank):
        access(bank, row=1, now=0)
        bank.reset_stats()
        assert bank._rb_hits == [0] and bank._rb_misses == [0]
        assert bank.total_activations() == 0
