"""The shared ghost pass against the per-ghost reference loops.

``ghost_pass`` decodes each geometry once, trains the region predictor
once per big-block size, runs identical walks once and splits each walk
at the warm-up boundary. tests/mrc/oracle.py keeps the loops it
replaced, each with its own decode, its own tracker and a per-record
warm-up compare; every row here must come out identical.

Covered: every point of the 36-point default space, the same block
size × associativity × policy grid at capacities small enough to evict
on a tier-1 trace, and Figure 1's block sizes; on Q1 and Q23; at
warm-ups 0, 1, 2, n//2, n−1, n and n+1; at sample rates 1.0 and 0.5.
"""

import random

import pytest

from repro.bimodal.sets import allowed_states
from repro.harness.experiments.design_space import BLOCK_SIZES
from repro.harness.runner import ExperimentSetup
from repro.mrc.dse import DseEstimateCell, default_space, dse_estimate_cell
from repro.mrc.engine import sample_addresses
from repro.mrc.ghost import AdaptiveGhost, BiModalGhost, LRUGhost, ghost_pass
from repro.workloads.trace_cache import materialized_columns
from tests.mrc.oracle import TRACKER_ENTRIES, adaptive_row, lru_row, state_row

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=400)
FIG1_CAPACITY = SETUP.system.dram_cache.capacity


def _requests():
    """(kind, capacity, block size, associativity, (X, Y)) of every row.

    The default space; the same block size × associativity × policy
    grid at 16 and 64 sets, so LRU eviction and the small-way class
    matter on a short trace, with every fixed (X, Y) state of those sets
    as its own row (an adaptive row only shows its best state);
    Figure 1's block sizes.
    """
    rows = [
        (p.policy, p.cache_mb << 20, p.block_size, p.associativity, None)
        for p in default_space()
    ]
    for p in default_space():
        if p.cache_mb != 4:
            continue
        for sets in (16, 64):
            capacity = p.block_size * p.associativity * sets
            rows.append((p.policy, capacity, p.block_size, p.associativity, None))
            if p.policy == "adaptive":
                rows += [
                    ("state", capacity, p.block_size, p.associativity, state)
                    for state in allowed_states(p.block_size * p.associativity, p.block_size)
                ]
    rows += [("fixed", FIG1_CAPACITY, bs, 8, None) for bs in BLOCK_SIZES]
    return rows


WARMUPS = {
    "0": lambda n: 0,
    "1": lambda n: 1,
    "2": lambda n: 2,
    "n//2": lambda n: n // 2,
    "n-1": lambda n: n - 1,
    "n": lambda n: n,
    "n+1": lambda n: n + 1,
}


def _stream(mix: str, rate: float) -> list[int]:
    addresses, _, _ = materialized_columns(
        mix,
        accesses_per_core=SETUP.accesses_per_core,
        seed=SETUP.seed,
        footprint_scale=SETUP.footprint_scale,
        intensity_scale=SETUP.intensity_scale,
    )
    return sample_addresses(addresses, rate, SETUP.seed)


def _scaled(capacity: int, set_size: int, rate: float) -> int:
    # Rates here are powers of 1/2, where the SHARDS capacity
    # correction is an exact division floored at one set.
    return max(set_size, int(capacity * rate))


def _ghost(kind: str, capacity: int, block_size: int, associativity: int, state):
    set_size = block_size * associativity
    if kind == "adaptive":
        return AdaptiveGhost(capacity, set_size=set_size, big_block_size=block_size)
    if kind == "state":
        return BiModalGhost(capacity, *state, set_size=set_size, big_block_size=block_size)
    return LRUGhost(capacity, associativity, block_size)


def _oracle(stream, rate: float, warmup: int, kind, capacity, block_size, associativity, state):
    set_size = block_size * associativity
    capacity = _scaled(capacity, set_size, rate)
    if kind == "adaptive":
        return adaptive_row(stream, capacity, set_size, block_size, warmup)
    if kind == "state":
        return state_row(stream, capacity, set_size, block_size, state, warmup)
    return lru_row(stream, capacity, associativity, block_size, warmup)


@pytest.mark.parametrize("warmup", list(WARMUPS))
@pytest.mark.parametrize("rate", [1.0, 0.5])
@pytest.mark.parametrize("mix", ["Q1", "Q23"])
def test_shared_pass_reproduces_reference_loops(mix, rate, warmup):
    stream = _stream(mix, rate)
    n = len(stream)
    w = WARMUPS[warmup](n)
    requests = _requests()
    result = ghost_pass(
        stream, [_ghost(*r) for r in requests], warmup=w, sample_rate=rate
    )
    got = [[c.hits, c.accesses, *c.best_state] for c in result.counts]
    expected = [_oracle(stream, rate, w, *r) for r in requests]
    assert got == expected
    # A warm-up past the end never resets the counters.
    counted = n - (w - 1) if 0 < w <= n else n
    assert {row[1] for row in got} == {counted}


@pytest.mark.parametrize("rate", [1.0, 0.5])
@pytest.mark.parametrize("mix", ["Q1", "Q23"])
def test_estimate_cell_rows_match_reference_loops(mix, rate):
    space = default_space()
    rows = dse_estimate_cell(
        DseEstimateCell(mix=mix, setup=SETUP, space=space, sample_rate=rate)
    )
    stream = _stream(mix, rate)
    warmup = int(len(stream) * 0.5)
    assert rows == [
        _oracle(stream, rate, warmup, *r) for r in _requests()[: len(space)]
    ]



def test_synthetic_stream_crosses_the_tracker_bound():
    # The mix traces above touch fewer than TRACKER_ENTRIES regions; this
    # stream revisits regions after more than that many others, so the
    # predictor's eviction decides fills, and hot regions cross the
    # density threshold mid-walk.
    rng = random.Random(14)
    regions = 3 * TRACKER_ENTRIES
    stream = []
    for _ in range(20_000):
        hot = rng.random() < 0.3
        region = rng.randrange(64) if hot else rng.randrange(regions)
        stream.append((region << 10) | (rng.randrange(16) << 6))
    requests = [
        ("state", 1 << 15, block_size, assoc, state)
        for block_size, assoc in ((512, 4), (1024, 4), (512, 8))
        for state in allowed_states(block_size * assoc, block_size)
    ]
    for warmup in (0, len(stream) // 2):
        result = ghost_pass(stream, [_ghost(*r) for r in requests], warmup=warmup)
        got = [[c.hits, c.accesses, *c.best_state] for c in result.counts]
        assert got == [_oracle(stream, 1.0, warmup, *r) for r in requests]


@pytest.mark.parametrize("others", [TRACKER_ENTRIES - 1, TRACKER_ENTRIES])
def test_tracker_holds_exactly_its_bound(others):
    # Four lines of region 0, then `others` distinct regions, then the
    # fifth and sixth lines of region 0. With TRACKER_ENTRIES - 1 others
    # region 0 is still tracked: its fifth line is dense, fills a big
    # block and the sixth line hits. One more region evicts it first.
    region_bytes = 512
    stream = [line << 6 for line in range(4)]
    stream += [(1 + r) * region_bytes for r in range(others)]
    stream += [4 << 6, 5 << 6]
    ghost = BiModalGhost(1 << 20, 3, 8, set_size=2048, big_block_size=region_bytes)
    [count] = ghost_pass(stream, [ghost]).counts
    assert [count.hits, count.accesses, *count.best_state] == state_row(
        stream, 1 << 20, 2048, region_bytes, (3, 8)
    )
    assert count.hits == (1 if others < TRACKER_ENTRIES else 0)
