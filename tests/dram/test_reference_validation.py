"""Cross-validation: one device bank vs command-level ReferenceBank.

The access-granularity model must produce the same data-ready times as
the explicit command schedule on arbitrary request sequences — this is
the evidence that its latencies aren't an artifact of the shortcut.
``test_kernel_validation.py`` extends this to every device entry point.
"""

from hypothesis import given, settings, strategies as st

from repro.common.config import DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice
from repro.dram.reference import ReferenceBank


@settings(max_examples=120, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 300)),  # (row, gap)
        min_size=1,
        max_size=80,
    ),
    timing_kind=st.sampled_from(["stacked", "ddr3"]),
)
def test_fast_bank_matches_reference(requests, timing_kind):
    timings = (
        DRAMTimingConfig.stacked()
        if timing_kind == "stacked"
        else DRAMTimingConfig.ddr3_1600h()
    )
    # One bank, single bursts: tCCD equals one burst, so the data bus
    # never delays a transfer and data-start is the bank's data-ready.
    fast = DRAMDevice(
        DRAMGeometry(channels=1, banks_per_channel=1, page_size=2048), timings
    )
    reference = ReferenceBank(timings)
    now = 0
    for row, gap in requests:
        now += gap
        fast.access_direct_fast(0, 0, row, now)
        b = reference.access(row, now)
        assert fast.last_data_start == b.data_ready, (row, now)


def test_reference_reports_command_times():
    timings = DRAMTimingConfig.stacked()
    bank = ReferenceBank(timings)
    first = bank.access(3, now=0)
    assert first.precharge_at is None
    assert first.activate_at == 0
    assert first.cas_at == timings.trcd
    conflict = bank.access(4, now=1000)
    assert conflict.precharge_at == 1000
    assert conflict.activate_at == 1000 + timings.trp
    assert conflict.data_ready == 1000 + timings.trp + timings.trcd + timings.cl


def test_reference_pipelines_row_hits():
    timings = DRAMTimingConfig.stacked()
    bank = ReferenceBank(timings)
    bank.access(3, now=0)
    a = bank.access(3, now=500)
    b = bank.access(3, now=500)
    assert b.cas_at == a.cas_at + timings.tccd


def test_reference_activate_leaves_cas_slot_free():
    timings = DRAMTimingConfig.stacked()
    bank = ReferenceBank(timings, refresh_offset=500)
    opened = bank.activate(3, now=0)
    assert opened.precharge_at is None and opened.activate_at == 0
    assert opened.cas_at == timings.trcd
    column = bank.access(3, now=0)  # row open: CAS only, at the open slot
    assert column.activate_at is None
    assert column.cas_at == timings.trcd
    # The first refresh is delayed by the offset: trefi itself is clear.
    assert bank.access(3, now=timings.trefi).activate_at is None
