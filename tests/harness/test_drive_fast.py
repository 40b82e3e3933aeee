"""Batched drive loop: every accepted record form drives identically."""

import pytest

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
