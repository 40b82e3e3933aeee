#!/usr/bin/env python
"""CI smoke for the MRC engine + dse driver (docs/dse.md).

Three gates, cheapest first:

1. **Exactness** — at sampling rate 1.0 the tag-only ghost cache must
   agree *exactly* (same hit/access integers) with the reference
   :class:`~repro.sram.cache.SetAssociativeCache` LRU walk. The ghost
   is an algorithmic restatement of set-associative LRU, not an
   approximation, so any drift is a bug.
2. **Accuracy** — the ghost estimate of a fixed-geometry design point
   must land within 2% absolute hit rate of the full timing simulation
   of the same point, on two mixes. This is the cross-validation bound
   ISSUE acceptance requires (the adaptive-policy estimate is an
   optimistic bracket and is deliberately not gated — docs/dse.md).
3. **Cost** — a full `run_design_space` must finish with >= 5x fewer
   full-simulation equivalents than the exhaustive grid.

Exit 0 on success, 1 with a one-line reason on any violation.
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.harness.runner import ExperimentSetup  # noqa: E402
from repro.mrc.dse import (  # noqa: E402
    DesignPoint,
    DseSimCell,
    dse_sim_cell,
    run_design_space,
)
from repro.mrc.ghost import LRUGhost, ghost_pass  # noqa: E402
from repro.sram.cache import SetAssociativeCache  # noqa: E402
from repro.workloads.trace_cache import materialized_columns  # noqa: E402

MIXES = ("Q1", "Q7")
ACCESSES = 4_000
TOLERANCE = 0.02


def fail(reason: str) -> None:
    print(f"dse_smoke: FAIL: {reason}", file=sys.stderr)
    raise SystemExit(1)


def addresses_for(setup: ExperimentSetup, mix: str):
    addresses, _, _ = materialized_columns(
        mix,
        accesses_per_core=setup.accesses_per_core,
        seed=setup.seed,
        footprint_scale=setup.footprint_scale,
        intensity_scale=setup.intensity_scale,
    )
    return addresses


def check_exactness(setup: ExperimentSetup) -> None:
    """Gate 1: ghost == reference LRU cache, integer for integer."""
    capacity = setup.system.dram_cache.capacity
    for mix in MIXES:
        stream = addresses_for(setup, mix).tolist()
        block_sizes = (64, 512)
        counts = ghost_pass(
            stream, [LRUGhost(capacity, 8, block_size) for block_size in block_sizes]
        ).counts
        for block_size, ghost in zip(block_sizes, counts):
            reference = SetAssociativeCache(capacity, 8, block_size)
            for address in stream:
                reference.access(address)
            if (ghost.hits, ghost.accesses) != (
                reference.accesses.hits,
                reference.accesses.total,
            ):
                fail(
                    f"ghost != reference LRU on {mix}/{block_size}B: "
                    f"{ghost.hits}/{ghost.accesses} vs "
                    f"{reference.accesses.hits}/{reference.accesses.total}"
                )
        print(f"dse_smoke: exactness ok on {mix} (64B, 512B)")


def check_accuracy(setup: ExperimentSetup) -> None:
    """Gate 2: |ghost - timing| <= 2% absolute on fixed geometry."""
    point = DesignPoint(
        cache_mb=8, block_size=512, associativity=4, policy="fixed"
    )
    warmup_fraction = 0.5
    for mix in MIXES:
        stream = addresses_for(setup, mix).tolist()
        ghost = LRUGhost(point.cache_mb << 20, point.associativity, point.block_size)
        [count] = ghost_pass(
            stream, [ghost], warmup=int(len(stream) * warmup_fraction)
        ).counts
        estimated = count.hit_rate
        timed = dse_sim_cell(
            DseSimCell(
                point=point,
                mix=mix,
                setup=setup,
                warmup_fraction=warmup_fraction,
            )
        )["hit_rate"]
        delta = abs(estimated - timed)
        print(
            f"dse_smoke: accuracy {mix} {point.label()}: "
            f"ghost {estimated:.4f} vs timing {timed:.4f} "
            f"(delta {delta:.4f}, tolerance {TOLERANCE})"
        )
        if delta > TOLERANCE:
            fail(
                f"ghost estimate off by {delta:.4f} > {TOLERANCE} "
                f"on {mix} {point.label()}"
            )


def check_cost(setup: ExperimentSetup) -> None:
    """Gate 3: the pruned driver spends >= 5x less than exhaustive."""
    outcome = run_design_space(setup=setup, mix_names=list(MIXES), jobs=2)
    stats = outcome["stats"]
    print(
        f"dse_smoke: dse spent {stats['full_sims_equivalent']:g} "
        f"full-sim equivalents vs {stats['exhaustive_sims']:g} exhaustive "
        f"({stats['speedup']:g}x)"
    )
    if stats["speedup"] < 5.0:
        fail(f"dse speedup {stats['speedup']:g}x < required 5x")
    if outcome["winner"] is None:
        fail("dse produced no fully-simulated winner")


def main() -> int:
    setup = ExperimentSetup(num_cores=4, accesses_per_core=ACCESSES)
    check_exactness(setup)
    check_accuracy(setup)
    check_cost(setup)
    print("dse_smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
