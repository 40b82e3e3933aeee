"""Property-based timing-model invariants of the device."""

from hypothesis import given, settings, strategies as st

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice


def _device(timings, channels: int = 1, banks: int = 1) -> DRAMDevice:
    return DRAMDevice(
        DRAMGeometry(channels=channels, banks_per_channel=banks, page_size=2048),
        timings,
    )


@settings(max_examples=50, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 200)),  # (row, gap)
        min_size=1,
        max_size=60,
    )
)
def test_bank_time_is_causal_and_monotone(requests):
    """The bank issues its CASes in order, at least tCCD apart and never
    before the request's PRE/ACT could; data follows the CAS by at least CL."""
    timings = DRAMTimingConfig.stacked()
    row_open = (0, timings.trcd, timings.trp + timings.trcd)  # by outcome
    device = _device(timings)
    now = 0
    last_cas = None
    for row, gap in requests:
        now += gap
        end = device.access_direct_fast(0, 0, row, now)
        start = device.last_data_start
        # The bank takes its next command tCCD after this CAS.
        cas = device._ready_at[0] - timings.tccd
        assert cas >= now + row_open[device.last_outcome]
        if last_cas is not None:
            assert cas >= last_cas + timings.tccd
        assert start >= cas + timings.cl
        assert end > start
        last_cas = cas


@settings(max_examples=50, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(1, 8)),
        min_size=1,
        max_size=50,
    )
)
def test_channel_bus_never_overlaps(requests):
    """Data-bus occupancy windows of successive transfers are disjoint."""
    device = _device(DRAMTimingConfig.stacked(), banks=4)
    now = 0
    windows = []
    for bank, row, bursts in requests:
        now += 3
        end = device.access_direct_fast(0, bank, row, now, bursts)
        windows.append((device.last_data_start, end))
    for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
        assert s2 >= e1


@settings(max_examples=50, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, (1 << 26) - 1), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_device_latency_bounds(requests):
    """Every access latency is at least the uncontended row-hit cost and
    bounded by queueing behind all earlier requests."""
    timings = DRAMTimingConfig.ddr3_1600h()
    device = _device(timings, channels=2, banks=8)
    floor = timings.cl + timings.burst_cycles
    now = 0
    for address, is_write in requests:
        now += 5
        fast = device.write_fast if is_write else device.read_fast
        latency = fast(address & ~63, now) - now
        assert latency >= floor
        # loose upper bound: all prior traffic plus one worst-case access
        assert latency < (len(requests) + 1) * (
            timings.trp + timings.trcd + timings.cl + timings.burst_cycles
        ) + timings.trfc


@settings(max_examples=30, deadline=None)
@given(seed_rows=st.lists(st.integers(0, 3), min_size=2, max_size=30))
def test_rbh_counts_consistent(seed_rows):
    """hits + misses == accesses for any access pattern."""
    device = _device(DRAMTimingConfig.stacked())
    now = 0
    for row in seed_rows:
        now += 100
        device.access_direct_fast(0, 0, row, now)
    assert device._rb_hits[0] + device._rb_misses[0] == len(seed_rows)
    assert device.total_activations() >= 1
    assert device.total_precharges() <= device.total_activations()
