"""Repository benchmark: end-to-end host times and per-layer costs.

Run from the repository root::

    python3 repobench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json
(set-up time and one pass's wall time, both in reference seconds that
factor out the shared host's changing speed -- see hostspeed.py -- and
peak RSS), after a ``host seconds:`` line with the unscaled times;
``--trace 1`` prints its per-layer metrics, preceded by a ``layers:``
line that also carries the workload-specific ones. The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A crash or a missing metric
prints one line on standard error instead and exits 1. See
repobench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / ".run"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 5
MIN_PASSES = 3
# Modules the facade imports lazily; importing them is part of set-up.
READY_MODULES = ("repro.api", "repro.harness.experiments", "repro.mrc.dse")


class BenchError(Exception):
    """A failure that ends the run with one line on standard error."""


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, nowhere else."""
    init = SRC / "repro" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no repro package at {init.parent}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))
    import importlib

    import repro

    if Path(repro.__file__).resolve() != init.resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {init}")
    for module in READY_MODULES:
        importlib.import_module(module)


def _hermetic(private: Path) -> None:
    """Run-private trace cache and temp dir; no ambient ``REPRO_*`` knobs."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    (private / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(private / "traces")
    os.environ["TMPDIR"] = str(private / "tmp")
    tempfile.tempdir = None


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup_probe(spec: str) -> int:
    """Child process: import, fill an empty trace cache, report readiness.

    Prints the ready time, the host-speed sampler's time and its scale.
    """
    args = json.loads(spec)
    sys.path.insert(0, str(ROOT))
    from repobench.hostspeed import Sampler

    def set_up() -> None:
        _import_repro()
        from repobench.workloads import WORKLOADS, materialize

        materialize(WORKLOADS[args["workload"]](args["seed"], args["accesses"]))

    sampler = Sampler()
    sampler.time(set_up)
    print("ready", repr(_monotonic()), repr(sampler.spent), repr(sampler.scale), flush=True)
    return 0


def _setup_samples(workload, private: Path) -> list[tuple[float, float]]:
    """Cold set-up times, each in a fresh interpreter: start to ready.

    Each sample is ``(host seconds, reference seconds)``; see hostspeed.py.
    """
    spec = json.dumps(
        {"workload": workload.name, "seed": workload.seed, "accesses": workload.accesses}
    )
    samples = []
    for i in range(SETUP_SAMPLES):
        cache = private / f"probe-{i}"
        env = dict(os.environ, REPRO_TRACE_CACHE_DIR=str(cache))
        start = _monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", spec],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0 or not proc.stdout.startswith("ready"):
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise BenchError(f"set-up probe failed: {tail}")
        ready, spent, scale = (float(v) for v in proc.stdout.split()[1:4])
        samples.append((ready - start, (ready - start - spent) * scale))
        shutil.rmtree(cache, ignore_errors=True)
    return samples


def _reference(workload) -> dict | None:
    """The stored outputs, when this run is at the reference seed and size."""
    ref = json.loads(REFERENCE.read_text())
    if workload.seed != ref["seed"] or workload.accesses != ref["accesses"][workload.name]:
        return None
    return ref["workloads"][workload.name]


def _plain_passes(workload, seconds: float, checker) -> list[tuple[float, float]]:
    """Timed passes as ``(host seconds, reference seconds)``."""
    from repobench.hostspeed import Sampler
    from repobench.workloads import clock, run_pass

    walls = []
    start = clock()
    while len(walls) < MIN_PASSES or clock() - start < seconds:
        sampler = Sampler()
        p = run_pass(workload, around=sampler.time)
        checker.check(f"pass {len(walls) + 1}", p)
        walls.append((p.wall - sampler.spent, sampler.reference(p.wall)))
    return walls


def _select(listed: list, computed: dict) -> dict:
    """Exactly the BENCHMARK.json metrics, each present, finite, right unit."""
    out = {}
    for spec in listed:
        name = spec["name"]
        if name not in computed:
            raise BenchError(f"missing metric {name}")
        value, unit = computed[name]
        if unit != spec["unit"] or not math.isfinite(value):
            raise BenchError(f"metric {name} is {value!r} {unit}, expected a finite {spec['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def _run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    private = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        _hermetic(private)
        _import_repro()
        from repobench import workloads as wl

        workload = wl.WORKLOADS[args.workload](args.seed, args.accesses)
        checker = wl.Checker(_reference(workload))
        setup = [] if args.trace else _setup_samples(workload, private)
        wl.materialize(workload)
        if args.trace:
            from repobench import layers

            computed, record = layers.traced_run(workload, checker, args.seconds)
            line = {k: {"value": v, "unit": u} for k, (v, u) in sorted(computed.items())}
            print("layers: " + json.dumps(line))
            record.update(workload=workload.name, seed=workload.seed, metrics=line)
            out = RUN_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
            out.write_text(json.dumps(record, default=repr))
        else:
            plain = _plain_passes(workload, args.seconds, checker)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            computed = {
                "setup_s": (statistics.median(ref for _, ref in setup), "s"),
                "wall_s": (statistics.median(ref for _, ref in plain), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            host = {
                "setup_s": statistics.median(host for host, _ in setup),
                "wall_s": statistics.median(host for host, _ in plain),
                "passes": len(plain),
            }
            print("host seconds: " + json.dumps(host))
        metrics = _select(listed, computed)
    finally:
        shutil.rmtree(private, ignore_errors=True)
    for problem in checker.problems[:20]:
        print(f"repobench: {args.workload}: {problem}", file=sys.stderr)
    return {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def _write_reference() -> None:
    """Record every workload's outputs at seed 1 and the default size.

    Only for a change that also re-baselines ``tests/golden/``.
    """
    private = RUN_DIR / f"reference-{os.getpid()}"
    try:
        _hermetic(private)
        _import_repro()
        from repobench import workloads as wl

        ref = {"seed": 1, "accesses": dict(wl.DEFAULT_ACCESSES), "workloads": {}}
        for name, cls in wl.WORKLOADS.items():
            workload = cls(1)
            wl.materialize(workload)
            checker = wl.Checker()
            for i in range(2):
                checker.check(f"pass {i + 1}", wl.run_pass(workload))
            if not checker.correct:
                raise BenchError("; ".join(checker.problems))
            ref["workloads"][name] = {
                "cells": [[c.label, c.digest] for c in checker.first.cells],
                "rows": checker.first.rows,
            }
        REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    finally:
        shutil.rmtree(private, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "antt", "dse"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--accesses", type=int, default=None,
        help="accesses per core (default: the workload's benchmark size)",
    )
    parser.add_argument("--write-reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args.setup_probe)
    label = "reference" if args.write_reference else args.workload
    if label is None:
        parser.error("--workload is required")
    try:
        if args.write_reference:
            _write_reference()
            return 0
        result = _run(args)
    except Exception as exc:
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        (RUN_DIR / "last-error.txt").write_text(traceback.format_exc())
        kind = "" if isinstance(exc, BenchError) else f"crashed: {type(exc).__name__}: "
        print(f"repobench: {label}: {kind}{exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
