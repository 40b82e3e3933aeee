"""Every DRAMDevice entry point against the command-level oracle.

The device resolves accesses at access granularity in one flat kernel.
These tests check it against an independent oracle built in the test:
one :class:`~repro.dram.reference.ReferenceBank` per bank (PRE/ACT/CAS
command schedule, refresh staggered 97 cycles per bank like the device)
plus a per-channel data-bus horizon. Randomized sequences drive every
entry point:

* ``read_fast`` / ``write_fast`` (address decoded by ``device.decode``,
  which ``test_device.TestDecode`` pins separately);
* ``access_direct_fast`` with burst-sized transfers and with AlloyCache's
  72 B tag-and-data ``transfer_cycles``;
* ``activate_direct`` followed by ``column_direct_fast``, the Bi-Modal
  parallel tag/data issue.

Ends, ``last_data_start``, ``last_outcome``, bytes moved and the
per-bank row-buffer/command counters and per-channel bus-busy cycles
must all agree. Times jump near refresh boundaries so the stagger and
the refresh stall are exercised, not only the row-buffer cases.
"""

from hypothesis import given, settings, strategies as st

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice
from repro.dram.reference import ReferenceBank

REFRESH_STAGGER = 97
ALLOY_TAD_CYCLES = 5


def _timings(kind: str) -> DRAMTimingConfig:
    return (
        DRAMTimingConfig.stacked()
        if kind == "stacked"
        else DRAMTimingConfig.ddr3_1600h()
    )


class _Oracle:
    """One ReferenceBank per bank plus a per-channel bus horizon."""

    def __init__(self, geometry: DRAMGeometry, timings: DRAMTimingConfig) -> None:
        self.timings = timings
        self.nbk = geometry.banks_per_channel
        banks = geometry.channels * self.nbk
        self.banks = [
            ReferenceBank(timings, refresh_offset=(i % self.nbk) * REFRESH_STAGGER)
            for i in range(banks)
        ]
        self.bus_free = [0] * geometry.channels
        self.bus_busy = [0] * geometry.channels
        self.hits = [0] * banks
        self.misses = [0] * banks
        self.activations = [0] * banks
        self.precharges = [0] * banks
        self.bytes = 0
        self.outcome = 0
        self.data_start = 0

    def _transfer(self, channel: int, data_ready: int, bursts: int, cycles: int) -> int:
        start = max(data_ready, self.bus_free[channel])
        end = start + cycles
        self.bus_free[channel] = end
        self.bus_busy[channel] += cycles
        self.bytes += bursts * 64
        self.data_start = start
        return end

    def _count_commands(self, idx: int, rec) -> None:
        if rec.precharge_at is not None:
            self.precharges[idx] += 1
        if rec.activate_at is not None:
            self.activations[idx] += 1

    def access(self, channel, bank, row, now, bursts, cycles) -> int:
        idx = channel * self.nbk + bank
        rec = self.banks[idx].access(row, now)
        self._count_commands(idx, rec)
        if rec.activate_at is None:
            self.outcome = 0
            self.hits[idx] += 1
        else:
            self.outcome = 2 if rec.precharge_at is not None else 1
            self.misses[idx] += 1
        return self._transfer(channel, rec.data_ready, bursts, cycles)

    def activate(self, channel, bank, row, now) -> int:
        idx = channel * self.nbk + bank
        rec = self.banks[idx].activate(row, now)
        self._count_commands(idx, rec)
        return rec.cas_at

    def column(self, channel, bank, row, now, bursts) -> int:
        """CAS to the row just activated: no row-buffer event is counted
        (the activation was the bank's row-buffer event)."""
        rec = self.banks[channel * self.nbk + bank].access(row, now)
        assert rec.activate_at is None, "column access found its row closed"
        self.outcome = 0
        return self._transfer(
            channel, rec.data_ready, bursts, bursts * self.timings.burst_cycles
        )

    def refresh_due(self, bank: int, after: int, until: int) -> bool:
        """Does one of ``bank``'s refreshes start in ``(after, until]``?"""
        trefi = self.timings.trefi
        offset = bank * REFRESH_STAGGER
        k = (until - offset) // trefi
        return k >= 1 and k * trefi + offset > after


def _assert_state_matches(device: DRAMDevice, oracle: _Oracle, where) -> None:
    assert device._rb_hits == oracle.hits, where
    assert device._rb_misses == oracle.misses, where
    assert device._activations == oracle.activations, where
    assert device._precharges == oracle.precharges, where
    assert device._bus_busy == oracle.bus_busy, where
    assert device.bytes_transferred == oracle.bytes, where


_OPS = st.tuples(
    st.sampled_from(["read", "write", "direct", "alloy", "act_col"]),
    st.integers(0, 1),  # channel
    st.integers(0, 3),  # bank
    st.integers(0, 5),  # row (direct) / address seed (decoded)
    st.integers(1, 4),  # bursts
    st.integers(-40, 200),  # arrival gap (posted ops may arrive late)
    st.integers(0, 120),  # column delay after the activation request
    # Jump to just before / inside some bank's next refresh window.
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(-60, 1300))),
)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(_OPS, min_size=1, max_size=60),
    timing_kind=st.sampled_from(["stacked", "ddr3"]),
)
def test_every_entry_point_matches_reference_oracle(ops, timing_kind):
    timings = _timings(timing_kind)
    geometry = DRAMGeometry(channels=2, banks_per_channel=4, page_size=2048)
    device = DRAMDevice(geometry, timings)
    oracle = _Oracle(geometry, timings)
    burst = timings.burst_cycles
    now = 0
    for step, (kind, channel, bank, seed, bursts, gap, col_delay, jump) in enumerate(ops):
        now = max(0, now + gap)
        if jump is not None:
            target, delta = jump
            k = now // timings.trefi + 1
            now = max(now, k * timings.trefi + target * REFRESH_STAGGER + delta)
        where = (step, kind, now)
        if kind in ("read", "write"):
            address = (seed * 131) << 13  # spread across rows/banks/channels
            loc = device.decode(address)
            fast = device.read_fast if kind == "read" else device.write_fast
            end = fast(address, now, bursts)
            want = oracle.access(loc.channel, loc.bank, loc.row, now, bursts, bursts * burst)
        elif kind == "direct":
            end = device.access_direct_fast(channel, bank, seed, now, bursts)
            want = oracle.access(channel, bank, seed, now, bursts, bursts * burst)
        elif kind == "alloy":
            end = device.access_direct_fast(
                channel, bank, seed, now, 1, transfer_cycles=ALLOY_TAD_CYCLES
            )
            want = oracle.access(channel, bank, seed, now, 1, ALLOY_TAD_CYCLES)
        else:
            opened = device.activate_direct(channel, bank, seed, now)
            assert opened == oracle.activate(channel, bank, seed, now), where
            column_at = now + col_delay
            if oracle.refresh_due(bank, now, max(column_at, opened)):
                # The column half has no refresh check: the device lets a
                # refresh that falls between ACT and its CAS wait for the
                # bank's next access. The oracle does not model that
                # postponement, so such pairs issue only the ACT.
                _assert_state_matches(device, oracle, where)
                continue
            end = device.column_direct_fast(channel, bank, column_at, bursts)
            want = oracle.column(channel, bank, seed, column_at, bursts)
        assert end == want, where
        assert device.last_data_start == oracle.data_start, where
        assert device.last_outcome == oracle.outcome, where
        _assert_state_matches(device, oracle, where)


@settings(max_examples=100, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 300)),  # (row, gap)
        min_size=1,
        max_size=60,
    ),
    timing_kind=st.sampled_from(["stacked", "ddr3"]),
)
def test_flat_kernel_matches_reference_bank(requests, timing_kind):
    """Kernel CAS/data times equal the command-level schedule.

    Arrivals are clamped past the previous transfer's end so the shared
    data bus never delays a request: the kernel's ``last_data_start``
    must then equal the reference's ``data_ready`` (CAS + CL), and the
    row outcome must match the commands the reference issued. Bank 0
    has refresh offset 0 in both models.
    """
    timings = _timings(timing_kind)
    geometry = DRAMGeometry(channels=1, banks_per_channel=1, page_size=2048)
    device = DRAMDevice(geometry, timings)
    reference = ReferenceBank(timings)
    now = 0
    prev_end = 0
    for row, gap in requests:
        now = max(now + gap, prev_end)
        prev_end = device.access_direct_fast(0, 0, row, now)
        ref = reference.access(row, now)
        assert device.last_data_start == ref.data_ready, (row, now)
        if ref.precharge_at is not None:
            assert device.last_outcome == 2  # conflict: PRE + ACT + CAS
        elif ref.activate_at is not None:
            assert device.last_outcome == 1  # closed: ACT + CAS
        else:
            assert device.last_outcome == 0  # row hit: CAS only
