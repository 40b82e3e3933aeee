"""Cross-scheme property tests: every organization honours the contract.

Hypothesis drives random post-LLSC-like access sequences through each
DRAM cache organization and checks the invariants the harness relies
on: determinism, causal completions, consistent accounting, and the
hit-after-fill guarantee.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.runner import ExperimentSetup, build_cache

SCHEMES = [
    "alloy",
    "lohhill",
    "atcache",
    "footprint",
    "fixed512",
    "bimodal",
]


def fresh_cache(scheme):
    setup = ExperimentSetup(num_cores=4)
    return build_cache(scheme, setup.system, scale=setup.scale, adaptation_interval=500)


access_sequences = st.lists(
    st.tuples(
        st.integers(0, 1023),  # region
        st.integers(0, 7),  # sub-block
        st.booleans(),  # write
        st.integers(1, 40),  # gap
    ),
    min_size=5,
    max_size=120,
)


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=12, deadline=None)
@given(seq=access_sequences)
def test_contract_invariants(scheme, seq):
    cache = fresh_cache(scheme)
    now = 0
    reads = writes = 0
    for region, sub, is_write, gap in seq:
        now += gap
        address = region * 512 + sub * 64
        result = cache.access(address, now, is_write=is_write)
        # causal completion
        assert result.complete >= now
        assert result.latency >= 0
        if is_write:
            writes += 1
        else:
            reads += 1
        # hit-after-fill: an immediate re-read of the same address hits
        now = result.complete + 5
        again = cache.access(address, now, is_write=False)
        assert again.hit, (scheme, hex(address))
        reads += 1
        now = again.complete + 5
    assert cache.hit_stat.total == reads + writes
    assert cache.hit_latency.count + cache.miss_latency.count == reads
    # off-chip accounting never goes negative / inconsistent
    assert cache.offchip_fetched_bytes >= 0
    assert cache.offchip_wasted_bytes <= cache.offchip_fetched_bytes + 512 * 64


@pytest.mark.parametrize("scheme", SCHEMES)
def test_determinism_per_scheme(scheme):
    def run():
        cache = fresh_cache(scheme)
        now = 0
        latencies = []
        for i in range(400):
            now += 17
            r = cache.access(((i * 977) % 4096) * 64, now, is_write=(i % 5 == 0))
            latencies.append(r.latency)
        return latencies

    assert run() == run()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_avg_read_latency_is_the_exact_mean_since_reset(scheme):
    """``avg_read_latency``, pooled from the hit and miss means, equals
    the mean of ``complete - now`` over every read after the last
    ``reset_stats()``, compared exactly."""
    cache = fresh_cache(scheme)
    now = 0
    latencies = []
    for i in range(1_200):
        if i in (300, 700):
            cache.reset_stats()
            latencies = []
        now += 13
        is_write = i % 5 == 0
        # Every third access streams to a new line; the rest reuse 256.
        line = 4096 + i if i % 3 == 0 else (i * 977) % 256
        complete = cache.access_fast(line * 64, now, is_write)
        if not is_write:
            latencies.append(complete - now)
    assert cache.hit_latency.count and cache.miss_latency.count
    assert cache.avg_read_latency == sum(latencies) / len(latencies)
