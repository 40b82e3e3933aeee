"""Drive-loop throughput: records simulated per second, by protocol.

Not a paper figure — this benchmark tracks the simulator's own speed,
which bounds every sweep above it. ``fast`` uses the cached record
arrays and the batched drive loop; ``traced`` is the fast path with the
observability tracer enabled (events discarded), tracking
instrumentation overhead. Both must agree bit-for-bit on every
statistic; only wall-clock may differ.
"""

from repro.harness.perfbench import measure_drive_throughput
from repro.harness.runner import ExperimentSetup


def test_perf_drive_throughput(benchmark, report):
    setup = ExperimentSetup(num_cores=4, accesses_per_core=15_000)

    def measure():
        return tuple(
            measure_drive_throughput(
                scheme="bimodal", mix="Q1", setup=setup, mode=mode, repeats=2
            )
            for mode in ("fast", "traced")
        )

    fast, traced = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        [fast.row(), traced.row()],
        title="Drive-loop throughput (records/sec)",
    )
    # Identical simulations: the tracer taps are pull-based, not model
    # changes. Throughput assertions stay loose — wall-clock on shared
    # CI machines is noisy — the hard ratio targets are checked offline
    # via scripts/bench_perf.sh history (traced_over_fast).
    assert traced.stats == fast.stats
    assert fast.records == traced.records
    assert fast.records_per_second > 0
    assert traced.records_per_second > 0
