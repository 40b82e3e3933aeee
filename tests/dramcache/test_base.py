"""DRAMCacheBase contract tests: accounting and posted-operation order."""

import copy
import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.controller import MemoryController
from repro.dram.device import DRAMDevice
from repro.dramcache.base import DRAMCacheBase


class _StubCache(DRAMCacheBase):
    """Minimal concrete cache: everything misses, posts a fill."""

    name = "stub"

    def __init__(self):
        geometry = DRAMCacheGeometry(
            capacity=1 << 20,
            geometry=DRAMGeometry(channels=1, banks_per_channel=4, page_size=2048),
        )
        offchip = MemoryController(
            DRAMGeometry(channels=1, banks_per_channel=4, page_size=2048),
            DRAMTimingConfig.ddr3_1600h(),
        )
        super().__init__(geometry, offchip)
        self.executed: list[int] = []

    def _access_fast(self, address, now, is_write):
        self._hit = False
        return self._fetch_offchip(address, now, bursts=1)


class TestAccounting:
    def test_read_latency_tracked(self):
        cache = _StubCache()
        result = cache.access(0x1000, 0)
        assert cache.miss_latency.count == 1
        assert cache.miss_latency.total == result.latency
        assert cache.hit_latency.count == 0
        assert cache.avg_read_latency == result.latency

    def test_write_latency_not_tracked(self):
        cache = _StubCache()
        cache.access(0x1000, 0, is_write=True)
        assert cache.hit_latency.count == cache.miss_latency.count == 0
        assert cache.hit_stat.total == 1

    def test_wasted_fraction(self):
        cache = _StubCache()
        cache.access(0x1000, 0)  # 64B fetched
        cache._account_waste(1)  # but 64B wasted elsewhere
        assert cache.wasted_fraction() == pytest.approx(1.0)

    def test_wasted_fraction_no_fetch(self):
        assert _StubCache().wasted_fraction() == 0.0

    def test_traffic_totals(self):
        cache = _StubCache()
        cache.access(0x1000, 0)
        cache._writeback_offchip(0x2000, 100, bursts=2)
        cache.flush_posted()
        assert cache.offchip_traffic_bytes() == 64 + 128


class TestPostedOperations:
    def test_posted_runs_only_when_time_arrives(self):
        cache = _StubCache()
        cache._post_call(500, cache.executed.append, 500)
        cache.access(0x1000, 100)  # drain up to t=100: nothing runs
        assert cache.executed == []
        cache.access(0x2000, 600)  # t=600 >= 500: runs
        assert cache.executed == [500]

    def test_posted_order_is_time_then_fifo(self):
        cache = _StubCache()
        cache._post_call(300, cache.executed.append, 1)
        cache._post_call(200, cache.executed.append, 2)
        cache._post_call(300, cache.executed.append, 3)
        cache.access(0x1000, 1000)
        assert cache.executed == [2, 1, 3]

    def test_flush_posted_runs_everything(self):
        cache = _StubCache()
        cache._post_call(10_000, cache.executed.append, 1)
        cache.flush_posted()
        assert cache.executed == [1]

    def test_writeback_is_deferred(self):
        """A writeback stamped in the future must not touch the device
        until simulation time reaches it (causality)."""
        cache = _StubCache()
        cache._writeback_offchip(0x2000, 10_000, bursts=1)
        assert cache.offchip.writes == 0
        assert cache.offchip_writeback_bytes == 64  # accounted eagerly
        cache.access(0x1000, 20_000)
        assert cache.offchip.writes == 1

    def test_snapshot_keys(self):
        cache = _StubCache()
        cache.access(0x1000, 0)
        snap = cache.stats_snapshot()
        for key in (
            "accesses",
            "hit_rate",
            "avg_read_latency",
            "offchip_fetched_bytes",
            "wasted_fraction",
            "stack_rbh",
        ):
            assert key in snap


# ----------------------------------------------------------------------
# off-chip tail trains vs one posted entry per beat
# ----------------------------------------------------------------------
_TIMINGS = DRAMTimingConfig.ddr3_1600h()
_SPREAD = _TIMINGS.burst_cycles


class _RecordingDevice(DRAMDevice):
    """DRAMDevice that logs every timed access to a shared list.

    The kernel has two names: ``read_fast``/``write_fast`` call
    ``_timed_fast``, while the tail trains and stacked posts call
    ``access_direct_fast`` directly, so both names log.
    """

    __slots__ = ("log",)

    def _timed_fast(self, channel, bank, row, now, bursts=1, transfer_cycles=None):
        end = super()._timed_fast(channel, bank, row, now, bursts, transfer_cycles)
        self.log.append((self.name, channel, bank, row, now, end))
        return end

    access_direct_fast = _timed_fast


class _ScriptedCache(DRAMCacheBase):
    """Cache whose helpers a test script calls directly.

    Both devices and every posted callback log to ``self.log``, so the
    log holds the off-chip and stacked timing calls in execution order.
    """

    name = "scripted"

    def __init__(self, channels: int, page_size: int):
        self.log: list[tuple] = []
        offchip_geometry = DRAMGeometry(
            channels=channels, banks_per_channel=2, page_size=page_size
        )
        offchip = MemoryController(offchip_geometry, _TIMINGS)
        offchip.device = _RecordingDevice(offchip_geometry, _TIMINGS, name="offchip")
        offchip.device.log = self.log
        geometry = DRAMCacheGeometry(
            capacity=1 << 20,
            geometry=DRAMGeometry(channels=1, banks_per_channel=4, page_size=2048),
        )
        super().__init__(geometry, offchip)
        self.dram = _RecordingDevice(geometry.geometry, geometry.timing, name="stack")
        self.dram.log = self.log

    def _access_fast(self, address, now, is_write):
        raise NotImplementedError("scripts call the posting helpers directly")


class _PerBeatReference(_ScriptedCache):
    """Reference posting: one heap entry per tail beat, popped one by one.

    Each beat is a plain ``read_fast`` call on the off-chip device; the
    production tail trains must reproduce its calls and order exactly.
    """

    def _fetch_offchip(self, address, now, *, bursts):
        end = self.offchip.read_fast(address, now, 1)
        self.offchip_fetched_bytes += bursts * 64
        read_tail = self.offchip.device.read_fast
        for i in range(1, bursts):
            when = end + i * _SPREAD
            self._post_call(when, read_tail, address + 64 * i, when, 1)
        return end

    def _drain_posted(self, now):
        pending = self._pending
        while pending and pending[0][0] <= now:
            entry = heapq.heappop(pending)
            entry[2](*entry[3])

    def flush_posted(self):
        pending = self._pending
        while pending:
            entry = heapq.heappop(pending)
            entry[2](*entry[3])


def _run_script(cache: _ScriptedCache, script, flush_at) -> list[int]:
    """Apply ``script`` to ``cache``; returns the fetch completions.

    Callbacks and stacked-DRAM posts land exactly on a tail beat's
    stamp. A fetch's early callback is posted *before* the fetch (so
    with a smaller seq) at one of the fetch's own beats, located by
    timing the critical beat on a copy of the controller.
    """
    clock = 0
    beat_times = [0]
    completions = []
    for step, op in enumerate(script):
        if step == flush_at:
            cache.flush_posted()
        kind = op[0]
        if kind == "fetch":
            _, address, bursts, dt, early = op
            clock += dt
            if early is not None and bursts > 1:
                critical = copy.deepcopy(cache.offchip).read_fast(address, clock, 1)
                when = critical + (1 + early % (bursts - 1)) * _SPREAD
                cache._post_call(when, cache.log.append, ("early", when))
            end = cache._fetch_offchip(address, clock, bursts=bursts)
            completions.append(end)
            beat_times.extend(end + i * _SPREAD for i in range(1, bursts))
        elif kind == "writeback":
            _, address, bursts, dt = op
            clock += dt
            cache._writeback_offchip(address, clock, bursts=bursts)
        elif kind == "stacked":
            _, pick, bank, row = op
            when = beat_times[-1 - pick % len(beat_times)]
            cache._post_call(when, cache.dram.access_direct_fast, 0, bank, row, when, 1)
        elif kind == "callback":
            when = beat_times[-1 - op[1] % len(beat_times)]
            cache._post_call(when, cache.log.append, ("late", when))
        else:  # drain
            cache._drain_posted(clock + op[1])
    return completions


def _state(cache: _ScriptedCache) -> tuple:
    """Both devices' full state plus the controller's counters."""
    devices = tuple(
        {slot: getattr(device, slot) for slot in DRAMDevice.__slots__}
        for device in (cache.offchip.device, cache.dram)
    )
    return devices, cache.offchip.reads, cache.offchip.writes


_ADDRESS = st.integers(0, 1 << 15)
_OP = st.one_of(
    st.tuples(
        st.just("fetch"),
        _ADDRESS,
        st.integers(1, 70),
        st.integers(0, 400),
        st.none() | st.integers(0, 68),
    ),
    st.tuples(st.just("writeback"), _ADDRESS, st.integers(1, 8), st.integers(0, 400)),
    st.tuples(
        st.just("stacked"), st.integers(0, 500), st.integers(0, 3), st.integers(0, 3)
    ),
    st.tuples(st.just("callback"), st.integers(0, 500)),
    st.tuples(st.just("drain"), st.integers(-200, 3_000)),
)


@settings(max_examples=200, deadline=None)
@given(
    channels=st.sampled_from([1, 2, 3]),
    page_size=st.sampled_from([512, 2048]),
    script=st.lists(_OP, max_size=40),
    flush_at=st.none() | st.integers(0, 40),
)
def test_tail_trains_match_per_beat_posting(channels, page_size, script, flush_at):
    """Tail trains run the same device calls in the same order as one
    posted entry per beat, with multi-row tails, ties on a beat's stamp
    and drains that stop a train part-way."""
    train = _ScriptedCache(channels, page_size)
    reference = _PerBeatReference(channels, page_size)
    assert _run_script(train, script, flush_at) == _run_script(
        reference, script, flush_at
    )
    assert train.log == reference.log
    assert _state(train) == _state(reference)
    train.flush_posted()
    reference.flush_posted()
    assert train.log == reference.log
    assert _state(train) == _state(reference)
