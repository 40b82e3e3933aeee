"""Window-stall equivalence: the heap-based drive loop vs a list scan.

``runner._drive_batch`` bounds outstanding requests with a heap
(``heapq.heappush``/``heapreplace``). Only the *minimum* in-flight
completion time is ever consumed, so a plain list with a ``min()`` +
``list.index`` scan — the original implementation — is semantically
identical. This test keeps that equivalence pinned across window sizes,
schemes and warm-up boundaries: the reference implementation below is
the old list-scan loop over the rich ``access()`` path, and every
``DriveResult`` field it produces must match the production loop
byte for byte.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import (
    DriveResult,
    ExperimentSetup,
    build_cache,
    drive_cache,
)

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1_000)
TOTAL = SETUP.num_cores * SETUP.accesses_per_core


def _drive_listmin(cache, chunks, *, window, min_gap, pace, stall_scale, warmup):
    """The pre-heap drive loop: list-backed window, min()/index() scan."""
    access = cache.access
    inflight: list[int] = []
    now = 0.0
    end = 0
    issued = 0
    for chunk in chunks:
        addresses = chunk.addresses.tolist()
        is_writes = chunk.is_write.tolist()
        icounts = chunk.icount.tolist()
        for address, is_write, icount in zip(addresses, is_writes, icounts):
            issued += 1
            if warmup and issued == warmup:
                cache.reset_stats()
            gap = icount * pace
            now += gap if gap > min_gap else min_gap
            if len(inflight) >= window:
                earliest = min(inflight)
                if earliest > now:
                    now = float(earliest)
                result = access(address, int(now), is_write=is_write)
                inflight[inflight.index(earliest)] = result.complete
            else:
                result = access(address, int(now), is_write=is_write)
                inflight.append(result.complete)
            complete = result.complete
            if not is_write:
                now += (complete - result.start) * stall_scale
            if complete > end:
                end = complete
    return DriveResult(
        cache=cache, accesses=issued, end_time=end, stats=cache.stats_snapshot()
    )


@pytest.mark.parametrize("window", [1, 4, 16, 64])
def test_heap_window_identical_to_list_scan(window):
    records = SETUP.trace_records("Q1")
    warmup = TOTAL // 2

    reference_cache = build_cache("bimodal", SETUP.system)
    pace = 0.6 / 4
    stall_scale = 1.0 / (2.2 * 4)
    reference = _drive_listmin(
        reference_cache,
        (records,),
        window=window,
        min_gap=1,
        pace=pace,
        stall_scale=stall_scale,
        warmup=warmup,
    )

    production_cache = build_cache("bimodal", SETUP.system)
    production = drive_cache(
        production_cache,
        records,
        window=window,
        streams=SETUP.num_cores,
        warmup=warmup,
    )

    assert production.stats == reference.stats, f"window={window}"
    assert production.end_time == reference.end_time
    assert production.accesses == reference.accesses == TOTAL


@pytest.mark.parametrize("window", [1, 4])
def test_heap_window_identical_for_alloy(window):
    """A second scheme, so the equivalence is not bimodal-specific."""
    records = SETUP.trace_records("Q2")
    reference = _drive_listmin(
        build_cache("alloy", SETUP.system),
        (records,),
        window=window,
        min_gap=1,
        pace=0.6 / 4,
        stall_scale=1.0 / (2.2 * 4),
        warmup=0,
    )
    production = drive_cache(
        build_cache("alloy", SETUP.system),
        records,
        window=window,
        streams=SETUP.num_cores,
    )
    assert production.stats == reference.stats
    assert production.end_time == reference.end_time


@pytest.mark.parametrize("warmup", [1, 7, TOTAL // 3, TOTAL // 2, TOTAL - 1])
@pytest.mark.parametrize("scheme", ["bimodal", "alloy", "fixed512"])
def test_drive_identical_to_list_scan(scheme, warmup):
    """Every warm-up boundary resets stats before the same record."""
    records = SETUP.trace_records("Q1")
    reference = _drive_listmin(
        build_cache(scheme, SETUP.system),
        (records,),
        window=16,
        min_gap=1,
        pace=0.6 / 4,
        stall_scale=1.0 / (2.2 * 4),
        warmup=warmup,
    )
    production = drive_cache(
        build_cache(scheme, SETUP.system),
        records,
        window=16,
        streams=SETUP.num_cores,
        warmup=warmup,
    )
    assert production.stats == reference.stats, f"warmup={warmup}"
    assert production.end_time == reference.end_time
    assert production.accesses == reference.accesses == TOTAL
