"""Batched drive loop: every accepted record form drives identically."""

import pytest

from repro.harness.perfbench import measure_drive_throughput
from repro.harness.runner import ExperimentSetup, build_cache, drive_cache
from repro.workloads.generator import TraceChunk

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=2_000)
TOTAL = SETUP.num_cores * SETUP.accesses_per_core
HALF = TOTAL // 2


def _halves(chunk):
    return [
        TraceChunk(chunk.addresses[:HALF], chunk.is_write[:HALF], chunk.icount[:HALF]),
        TraceChunk(chunk.addresses[HALF:], chunk.is_write[HALF:], chunk.icount[HALF:]),
    ]


def test_fast_path_accepts_multiprogram_trace():
    """A MultiProgramTrace object routes through the batched path."""
    trace = SETUP.trace("Q2")
    via_trace = drive_cache(
        build_cache("bimodal", SETUP.system), trace, window=16, streams=4
    )
    via_chunk = drive_cache(
        build_cache("bimodal", SETUP.system),
        SETUP.trace_records("Q2"),
        window=16,
        streams=4,
    )
    assert via_trace.stats == via_chunk.stats


@pytest.mark.parametrize("warmup", [0, 1, HALF, HALF + 1, HALF + 2, TOTAL])
@pytest.mark.parametrize("scheme", ["bimodal", "alloy"])
def test_chunk_iterable_identical_to_whole_chunk(scheme, warmup):
    """Splitting the stream never moves the warm-up reset or any stat."""
    records = SETUP.trace_records("Q1")
    whole = drive_cache(
        build_cache(scheme, SETUP.system), records, streams=4, warmup=warmup
    )
    split = drive_cache(
        build_cache(scheme, SETUP.system), _halves(records), streams=4, warmup=warmup
    )
    assert split.stats == whole.stats, f"warmup={warmup}"
    assert split.end_time == whole.end_time
    assert split.accesses == whole.accesses == TOTAL


def test_tuple_records_are_refused_per_chunk():
    records = SETUP.trace_records("Q1")
    with pytest.raises(TypeError, match="iterable of tuple"):
        drive_cache(build_cache("alloy", SETUP.system), iter(records), streams=4)


def test_non_chunk_after_a_chunk_is_refused():
    first, second = _halves(SETUP.trace_records("Q1"))
    cache = build_cache("alloy", SETUP.system)
    with pytest.raises(TypeError, match="iterable of list"):
        drive_cache(cache, [first, list(second)], streams=4)


def test_merged_chunks_cover_trace():
    trace = SETUP.trace("Q1")
    chunks = list(trace.merged_chunks(chunk_size=1_000))
    assert all(isinstance(c, TraceChunk) for c in chunks)
    assert sum(len(c) for c in chunks) == TOTAL
    merged = trace.materialize()
    flat = [a for c in chunks for a in c.addresses.tolist()]
    assert flat == merged.addresses.tolist()


def test_perfbench_smoke():
    """Throughput measurement runs and both modes agree (no timing asserts:
    wall-clock ratios are checked offline, not in tier-1)."""
    setup = ExperimentSetup(num_cores=4, accesses_per_core=1_000)
    fast = measure_drive_throughput(setup=setup, mode="fast", repeats=1)
    traced = measure_drive_throughput(setup=setup, mode="traced", repeats=1)
    assert fast.records == traced.records == 4_000
    assert fast.stats == traced.stats
    assert fast.records_per_second > 0
    assert traced.records_per_second > 0
