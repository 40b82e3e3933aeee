#!/usr/bin/env python3
"""Watch the Bi-Modal cache adapt its (X, Y) state over a run.

Drives one mix through the Bi-Modal cache while periodically sampling
the cache-wide global state, the small-block access fraction and the
block size predictor's disposition — the mechanics behind Figure 10.

Usage:
    python examples/adaptive_sizing.py [mix-name]
"""

import sys

from repro.harness import ExperimentSetup, build_cache, print_table
from repro.harness.runner import drive_cache
from repro.workloads.generator import TraceChunk


def main() -> None:
    mix_name = sys.argv[1] if len(sys.argv) > 1 else "Q23"
    setup = ExperimentSetup(num_cores=4, accesses_per_core=25_000, seed=1)
    total = setup.accesses_per_core * setup.num_cores
    cache = build_cache(
        "bimodal",
        setup.system,
        scale=setup.scale,
        adaptation_interval=max(1_000, total // 150),
    )
    trace = setup.trace_records(mix_name)

    checkpoints = []
    sample_every = total // 10

    def record_checkpoint(count: int) -> None:
        checkpoints.append(
            {
                "accesses": count,
                "global_state": str(cache.global_ctrl.state),
                "small_frac": cache.small_block_access_fraction(),
                "hit_rate": cache.hit_rate,
                "wl_hit_rate": cache.way_locator_hit_rate,
                "space_util": cache.space_utilization(),
            }
        )

    def slices():
        # The drive loop finishes one chunk before it asks for the
        # next, so a checkpoint taken here sees exactly `start` records.
        for start in range(0, total, sample_every):
            if start:
                record_checkpoint(start)
            stop = min(start + sample_every, total)
            yield TraceChunk(
                trace.addresses[start:stop],
                trace.is_write[start:stop],
                trace.icount[start:stop],
            )

    drive_cache(cache, slices(), streams=setup.num_cores)
    record_checkpoint(total)

    print_table(
        checkpoints,
        title=f"Bi-Modal adaptation over mix {mix_name} "
        f"(T={cache.config.utilization_threshold}, "
        f"W={cache.config.adaptation_weight})",
    )
    print(
        f"\nfinal: {cache.big_fills.value} big fills, "
        f"{cache.small_fills.value} small fills, "
        f"{cache.global_ctrl.transitions} global-state transitions, "
        f"predictor accuracy {cache.predictor.accuracy.rate:.2f}"
    )


if __name__ == "__main__":
    main()
