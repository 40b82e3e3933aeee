"""Python calls per driven record: the drive path's tight perf gate.

Wall time on a shared host moves by more than any regression worth
catching, but the number of Python calls a drive makes repeats exactly
from run to run and across CPython versions. Each cell below runs under
cProfile and counts every call whose code lives in the ``repro``
package; a count more than 5% away from its committed figure, in either
direction, fails. A lowered count must be committed too, so the tables
stay a ledger of what the drive path costs.

The cache build and the trace fetch happen before profiling, as
``run_scheme_on_mix`` does them. The ``repro.mrc`` ghost pass keeps its
per-record loops inside one function, so calls cannot gate it; the
wall-time bound on repobench's ``dse`` workload (``scripts/ci.sh``)
covers it.
"""

import cProfile
import os
import pstats
from collections import Counter

import pytest

import repro
from repro.cores.multiprog import MultiProgramRunner
from repro.harness.runner import ExperimentSetup, build_cache, drive_cache
from repro.harness.schemes import available_schemes

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=5_000)
RECORDS = SETUP.num_cores * SETUP.accesses_per_core
ADAPTATION_INTERVAL = max(1_000, RECORDS // 150)
TOLERANCE = 0.05
PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: ``drive_cache`` calls per record, by (scheme, mix). Q2 is the
#: ``sweep`` mix and runs every registered scheme; bimodal on Q1 and Q7
#: and alloy on Q1 cover the way-locator hit path, its miss path and
#: the baseline scheme.
DRIVE_BUDGET = {
    ("alloy", "Q2"): 8.90,
    ("lohhill", "Q2"): 10.91,
    ("atcache", "Q2"): 12.08,
    ("footprint", "Q2"): 7.84,
    ("bimodal", "Q2"): 6.63,
    ("wayloc-only", "Q2"): 6.33,
    ("bimodal-only", "Q2"): 9.74,
    ("fixed512", "Q2"): 9.44,
    ("bimodal", "Q1"): 7.28,
    ("bimodal", "Q7"): 13.09,
    ("alloy", "Q1"): 8.72,
}

#: ``MultiProgramRunner.run_antt`` calls per record on Q7, the ``antt``
#: mix: the multiprogrammed drive plus the four standalone ones, over
#: the records those five drives issue.
ANTT_MIX = "Q7"
ANTT_RECORDS = 2 * RECORDS
ANTT_BUDGET = {
    "alloy": 10.20,
    "bimodal": 13.31,
}

DRIVE_CELLS = [(scheme, "Q2") for scheme in available_schemes()] + [
    ("bimodal", "Q1"),
    ("bimodal", "Q7"),
    ("alloy", "Q1"),
]


def _build(scheme):
    return build_cache(
        scheme,
        SETUP.system,
        scale=SETUP.scale,
        adaptation_interval=ADAPTATION_INTERVAL,
    )


def _repro_calls(run) -> Counter:
    """Calls of ``repro`` code made while ``run()`` runs, by subpackage."""
    profile = cProfile.Profile()
    profile.runcall(run)
    split: Counter = Counter()
    for (filename, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items():
        if filename.startswith(PACKAGE):
            split[filename[len(PACKAGE):].split(os.sep)[0].removesuffix(".py")] += calls
    return split


def _check(cell: str, split: Counter, records: int, budget) -> None:
    per_record = sum(split.values()) / records
    layers = ", ".join(
        f"{name} {calls / records:.2f}" for name, calls in split.most_common()
    )
    report = f"{cell}: {per_record:.2f} calls/record ({layers})"
    assert budget is not None, f"no committed call budget for {report}"
    drift = per_record / budget - 1.0
    assert abs(drift) <= TOLERANCE, (
        f"{report} is {drift:+.1%} from the committed {budget:.2f}"
        f" (tolerance ±{TOLERANCE:.0%}); commit the new figure if the"
        " change is meant"
    )


@pytest.mark.parametrize("scheme,mix", DRIVE_CELLS)
def test_drive_call_budget(scheme, mix):
    cache = _build(scheme)
    records = SETUP.trace_records(mix)
    split = _repro_calls(
        lambda: drive_cache(
            cache, records, window=16, streams=SETUP.num_cores, warmup=RECORDS // 2
        )
    )
    _check(f"{scheme}/{mix}", split, RECORDS, DRIVE_BUDGET.get((scheme, mix)))


@pytest.mark.parametrize("scheme", sorted(ANTT_BUDGET))
def test_antt_call_budget(scheme):
    SETUP.trace_records(ANTT_MIX)  # the drives' first split is a memory hit
    caches = iter([_build(scheme) for _ in range(5)])
    runner = MultiProgramRunner(
        SETUP.mixes()[ANTT_MIX],
        lambda: next(caches),
        accesses_per_core=SETUP.accesses_per_core,
        seed=SETUP.seed,
        footprint_scale=SETUP.footprint_scale,
        warmup_fraction=0.5,
    )
    split = _repro_calls(runner.run_antt)
    _check(f"antt {scheme}/{ANTT_MIX}", split, ANTT_RECORDS, ANTT_BUDGET[scheme])
