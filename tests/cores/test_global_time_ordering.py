"""Regression tests for global-time-ordered request delivery.

The multiprogrammed runner must deliver requests to the shared memory
system in non-decreasing arrival-time order even when per-core clocks
diverge wildly (a low-intensity core races ahead in cycle count). An
earlier implementation keyed its scheduling heap on post-access core
clocks, letting a far-ahead core stamp bank state that earlier-in-time
requests from slower cores then queued behind — inflating latencies by
orders of magnitude on heterogeneous mixes.
"""


from repro.cores.multiprog import MultiProgramRunner
from repro.harness.runner import ExperimentSetup, build_cache
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profile import ProgramProfile


def heterogeneous_mix() -> WorkloadMix:
    """Two programs with a 50x intensity gap (maximal clock skew)."""
    hot = ProgramProfile(
        name="hot",
        footprint_mb=4.0,
        utilization_dist={8: 1.0},
        intensity_apki=40.0,
        seed_salt=0,
    )
    cold = ProgramProfile(
        name="cold",
        footprint_mb=1.0,
        utilization_dist={8: 1.0},
        intensity_apki=0.8,
        seed_salt=1,
    )
    return WorkloadMix(name="skew", programs=(hot, cold, hot.with_salt(2), cold.with_salt(3)))


class _ArrivalProbe:
    """Wraps a cache and records the arrival times it is given."""

    def __init__(self, cache):
        self.cache = cache
        self.arrivals: list[int] = []

    def access(self, address, now, *, is_write=False):
        self.arrivals.append(now)
        return self.cache.access(address, now, is_write=is_write)

    def reset_stats(self):
        self.cache.reset_stats()

    def stats_snapshot(self):
        return self.cache.stats_snapshot()


def test_multiprog_arrivals_are_globally_ordered():
    setup = ExperimentSetup(num_cores=4, accesses_per_core=1500)
    probe = _ArrivalProbe(build_cache("alloy", setup.system, scale=setup.scale))
    runner = MultiProgramRunner(
        heterogeneous_mix(),
        lambda: probe,
        accesses_per_core=1500,
        seed=1,
        footprint_scale=1.0,
        warmup_fraction=0.0,
    )
    runner.run_multiprogrammed()
    assert probe.arrivals, "no accesses recorded"
    violations = sum(
        1 for a, b in zip(probe.arrivals, probe.arrivals[1:]) if b < a
    )
    # Arrival order is non-decreasing up to the stall adjustments applied
    # after issue; large backward jumps must never occur.
    max_backstep = max(
        (a - b for a, b in zip(probe.arrivals, probe.arrivals[1:]) if b < a),
        default=0,
    )
    assert max_backstep < 2_000, (violations, max_backstep)


def test_heterogeneous_mix_latencies_stay_sane():
    """With ordered delivery, a lightly loaded system must not produce
    thousand-cycle average latencies on a skewed mix."""
    setup = ExperimentSetup(num_cores=4, accesses_per_core=2500)
    cache = build_cache("alloy", setup.system, scale=setup.scale)
    runner = MultiProgramRunner(
        heterogeneous_mix(),
        lambda: cache,
        accesses_per_core=2500,
        seed=1,
        footprint_scale=1.0,
        warmup_fraction=0.5,
    )
    runner.run_multiprogrammed()
    assert cache.avg_read_latency < 600

