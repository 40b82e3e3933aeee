"""Drive-loop throughput measurement and the BENCH_perf.json record.

The simulator's capacity for paper-scale sweeps is set by one number:
merged-trace records simulated per second. This module measures it on
the standard 4-core bimodal drive in three modes —

* ``fast`` — cached record arrays through the batched drive loop,
* ``traced`` — the fast protocol with the observability tracer enabled
  (events discarded), so tracer overhead is tracked across PRs, and
* ``mrc`` — the ghost estimation pass of the design-space driver
  (``repro.mrc``, docs/dse.md): trace records/sec through one
  all-points ghost pass, plus the driver's cost accounting
  (``full_sims_avoided``, ``dse_speedup``) in the history row,

and appends timestamped measurements to ``BENCH_perf.json`` so the
throughput history rides alongside the figure results. The drive modes
produce bit-identical statistics (asserted on every measurement);
wall-clock is the only difference. ``mrc`` is a different estimator,
not a drive protocol, so it is exempt from that identity check.

The regression gate compares each (mode, scheme, mix) cell against its
own history. Older history rows carry a ``backend`` column from when a
second, vectorized drive engine existed; the gate only compares against
rows without it or with ``scalar``. Gated runs always use at least 3
repeats (best-of is what lands in the history, so a single noisy sample
must never set or trip a baseline).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.errors import EXIT_OK, EXIT_PERF_GATE, EXIT_USAGE

from repro.harness.runner import ExperimentSetup, build_cache, drive_cache
from repro.harness.schemes import available_schemes
from repro.obs import Tracer, get_metrics, install
from repro.workloads.mixes import mixes_for_cores

__all__ = [
    "ThroughputResult",
    "measure_drive_throughput",
    "measure_mrc_throughput",
    "append_bench_record",
    "gate_against_history",
    "main",
]

BENCH_FILE = "BENCH_perf.json"


@dataclass(frozen=True)
class ThroughputResult:
    """Best-of-N throughput of one drive mode."""

    mode: str
    scheme: str
    mix: str
    records: int
    best_seconds: float
    records_per_second: float
    repeats: int
    stats: dict
    # Allocation profile of one (untimed) instrumented run of the same
    # cell: tracemalloc peak and the number of gc collections it caused.
    alloc_peak_bytes: int = 0
    gc_collections: int = 0
    #: Mode-specific history columns (the ``mrc`` mode records its
    #: cost accounting here); merged verbatim into :meth:`row`.
    extra: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "mode": self.mode,
            "scheme": self.scheme,
            "mix": self.mix,
            "records": self.records,
            "best_seconds": round(self.best_seconds, 4),
            "records_per_second": round(self.records_per_second, 1),
            "repeats": self.repeats,
            "alloc_peak_bytes": self.alloc_peak_bytes,
            "gc_collections": self.gc_collections,
            **self.extra,
        }


def _run_once(
    scheme: str,
    mix: str,
    setup: ExperimentSetup,
    mode: str,
) -> tuple[float, dict]:
    """One timed drive; returns (seconds, stats snapshot).

    The timed region covers the full experiment cell — cache build,
    trace acquisition and the drive — because that is the unit the
    figure grids repeat.
    """
    if mode not in ("fast", "traced"):
        raise ValueError(f"unknown mode {mode!r} (use 'fast' or 'traced')")
    total = setup.accesses_per_core * setup.num_cores
    warmup = total // 2
    sink = None
    previous = None
    if mode == "traced":
        # Tracer enabled, events discarded: measures instrumentation
        # overhead only, not disk throughput.
        sink = open(os.devnull, "w")
        previous = install(Tracer(enabled=True, stream=sink))
    try:
        start = time.perf_counter()
        cache = build_cache(scheme, setup.system, scale=setup.scale)
        result = drive_cache(
            cache,
            setup.trace_records(mix),
            window=16,
            streams=setup.num_cores,
            warmup=warmup,
        )
        elapsed = time.perf_counter() - start
    finally:
        if previous is not None:
            install(previous)
        if sink is not None:
            sink.close()
    if result.accesses != total:
        raise RuntimeError(
            f"drive consumed {result.accesses} records, expected {total}"
        )
    return elapsed, result.stats


def _measure_allocations(
    scheme: str,
    mix: str,
    setup: ExperimentSetup,
    mode: str,
) -> tuple[int, int]:
    """(tracemalloc peak bytes, gc collections) of one untimed run.

    Run separately from the timed repeats: tracemalloc slows the
    interpreter down severalfold, so the allocation profile must never
    share a run with a throughput sample.
    """
    gc.collect()
    before = sum(s["collections"] for s in gc.get_stats())
    tracemalloc.start()
    try:
        _run_once(scheme, mix, setup, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    after = sum(s["collections"] for s in gc.get_stats())
    return peak, after - before


def measure_drive_throughput(
    *,
    scheme: str = "bimodal",
    mix: str = "Q1",
    setup: ExperimentSetup | None = None,
    mode: str = "fast",
    repeats: int = 3,
    allocations: bool = True,
) -> ThroughputResult:
    """Best-of-``repeats`` records/sec for one (scheme, mix, mode) cell."""
    setup = setup or ExperimentSetup(num_cores=4, accesses_per_core=15_000)
    total = setup.accesses_per_core * setup.num_cores
    best = float("inf")
    stats: dict = {}
    for _ in range(max(1, repeats)):
        elapsed, stats = _run_once(scheme, mix, setup, mode)
        if elapsed < best:
            best = elapsed
    peak = collections = 0
    if allocations:
        peak, collections = _measure_allocations(scheme, mix, setup, mode)
    return ThroughputResult(
        mode=mode,
        scheme=scheme,
        mix=mix,
        records=total,
        best_seconds=best,
        records_per_second=total / best if best else 0.0,
        repeats=max(1, repeats),
        stats=dict(stats),
        alloc_peak_bytes=peak,
        gc_collections=collections,
    )


def measure_mrc_throughput(
    *,
    mix: str = "Q1",
    setup: ExperimentSetup | None = None,
    repeats: int = 3,
    sample_rate: float = 1.0,
) -> ThroughputResult:
    """Best-of-``repeats`` trace records/sec through one ghost pass.

    The timed unit is :func:`repro.mrc.dse.dse_estimate_cell` — the
    estimation phase of ``repro dse``: every default design point's
    ghost resolved over the mix's materialized address column in one
    shared ghost pass. ``extra`` records the design points, the
    distinct ghost walks the pass ran (the ``mrc.ghosts`` counter) and
    the driver's cost accounting for the pass: frontier size, full
    simulations avoided and the resulting speedup over the exhaustive
    grid (same formulas as ``run_design_space``), so both acceptance
    numbers land in the committed history.
    """
    from repro.mrc.dse import (
        DseEstimateCell,
        default_space,
        dse_estimate_cell,
        pareto_frontier,
    )

    setup = setup or ExperimentSetup(num_cores=4, accesses_per_core=15_000)
    space = default_space()
    cell = DseEstimateCell(
        mix=mix, setup=setup, space=space, sample_rate=sample_rate
    )
    total = setup.accesses_per_core * setup.num_cores
    best = float("inf")
    rows: list = []
    metrics = get_metrics()
    walks = metrics.counters().get("mrc.ghosts", 0)
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        rows = dse_estimate_cell(cell)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    walks = (metrics.counters().get("mrc.ghosts", 0) - walks) // max(1, repeats)
    rates = [h / a if a else 0.0 for h, a, _, _ in rows]
    frontier = pareto_frontier(list(space), rates)
    survivors = max(1, (len(frontier) + 1) // 2)
    spent = 0.25 * len(frontier) + survivors
    exhaustive = float(len(space))
    return ThroughputResult(
        mode="mrc",
        scheme="ghost",
        mix=mix,
        records=total,
        best_seconds=best,
        records_per_second=total / best if best else 0.0,
        repeats=max(1, repeats),
        stats={
            "ghosts": walks,
            "best_est_hit_rate": round(max(rates), 6) if rates else 0.0,
        },
        extra={
            "points": len(space),
            "ghosts": walks,
            "frontier_size": len(frontier),
            "full_sims_avoided": round(exhaustive - spent, 2),
            "dse_speedup": round(exhaustive / spent, 2) if spent else 0.0,
        },
    )


def append_bench_record(results: list[ThroughputResult], path: str | Path) -> dict:
    """Append one timestamped measurement entry to ``BENCH_perf.json``.

    The file holds a JSON list of entries (newest last); a missing or
    corrupt file starts a fresh history. Returns the entry written.
    """
    path = Path(path)
    history: list = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                history = loaded
        except (OSError, ValueError):
            history = []
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "measurements": [r.row() for r in results],
    }
    fast = next((r for r in results if r.mode == "fast"), None)
    traced = next((r for r in results if r.mode == "traced"), None)
    if fast and traced and fast.records_per_second:
        # Observability overhead: 1.0 means tracer-on costs nothing.
        entry["traced_over_fast"] = round(
            traced.records_per_second / fast.records_per_second, 3
        )
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return entry


def gate_against_history(
    results: list[ThroughputResult],
    path: str | Path,
    *,
    threshold: float = 0.7,
    allow_missing: bool = False,
) -> int:
    """Regression gate: compare measurements to the committed history.

    For every measured cell, find the most recent row in ``path`` with
    the same (mode, scheme, mix), skipping rows recorded on a backend
    other than ``scalar`` (the removed vectorized engine), and require
    ``measured >= threshold * committed`` records/sec. Prints the ratio
    either way; returns 4 (the CI perf-regression exit code) if any
    cell falls below, 0 otherwise. A cell with no committed baseline is
    a usage error (exit 2) — a silently skipped gate is worse than no
    gate — unless ``allow_missing`` is set (first run of a new scheme).
    """
    path = Path(path)
    history: list = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                history = loaded
        except (OSError, ValueError):
            history = []
    failed = False
    for result in results:
        baseline = None
        for entry in reversed(history):
            for row in entry.get("measurements", []):
                if (
                    row.get("mode") == result.mode
                    and row.get("scheme") == result.scheme
                    and row.get("mix") == result.mix
                    and row.get("backend", "scalar") == "scalar"
                ):
                    baseline = row
                    break
            if baseline is not None:
                break
        cell = f"{result.mode}/{result.scheme}/{result.mix}"
        committed = (baseline or {}).get("records_per_second") or 0.0
        if not committed:
            if allow_missing:
                print(f"perf gate: {cell}: no committed baseline, skipping")
                continue
            print(
                f"perf gate: error: no committed baseline for {cell} in"
                f" {path} (record one with --output, or pass"
                " --gate-allow-missing for a new cell's first run)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        ratio = result.records_per_second / committed
        verdict = "ok" if ratio >= threshold else "REGRESSION"
        print(
            f"perf gate: {cell}: {result.records_per_second:.0f} vs committed"
            f" {committed:.0f} records/sec -> {ratio:.2f}x"
            f" (threshold {threshold:.2f}x) {verdict}"
        )
        if ratio < threshold:
            failed = True
    return EXIT_PERF_GATE if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure drive-loop throughput (records simulated/sec)."
    )
    parser.add_argument("--scheme", default="bimodal")
    parser.add_argument("--mix", default="Q1")
    parser.add_argument(
        "--schemes",
        default=None,
        help="matrix mode: comma-separated schemes, or 'all' for every "
        "registered scheme (runs the fast mode over --mixes)",
    )
    parser.add_argument(
        "--mixes",
        default=None,
        help="matrix mode: comma-separated trace mixes (default: --mix)",
    )
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--accesses-per-core", type=int, default=15_000)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repeats per cell; gated runs use at least 3 "
        "(best-of-repeats is what the gate compares)",
    )
    parser.add_argument(
        "--modes",
        default="fast,traced",
        help="comma-separated subset of {fast,traced,mrc}",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=f"append the entry to this JSON history (e.g. {BENCH_FILE})",
    )
    parser.add_argument(
        "--gate",
        default=None,
        metavar="HISTORY",
        help="compare against the last committed entry for each measured "
        "(mode, scheme, mix) in this JSON history; exit 4 on regression",
    )
    parser.add_argument(
        "--gate-threshold",
        type=float,
        default=0.7,
        help="minimum measured/committed records-per-second ratio (default 0.7)",
    )
    parser.add_argument(
        "--gate-allow-missing",
        action="store_true",
        help="let cells with no committed baseline pass the gate "
        "(first run of a new scheme) instead of failing with exit 2",
    )
    args = parser.parse_args(argv)

    # Validate the requested grid up front so a typo is a one-line
    # usage error (exit 2), not a traceback from deep inside a build.
    def usage_error(message: str) -> int:
        print(f"perfbench: error: {message}", file=sys.stderr)
        return EXIT_USAGE

    if args.cores not in (4, 8, 16):
        return usage_error(f"--cores must be 4, 8 or 16 (got {args.cores})")
    known = available_schemes()
    if args.schemes in (None, "", "all"):
        schemes = known if (args.schemes or args.mixes) else [args.scheme]
    else:
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    unknown = [s for s in schemes if s not in known]
    if unknown:
        return usage_error(
            f"unknown scheme(s): {', '.join(unknown)};"
            f" available schemes: {', '.join(known)}"
        )
    mixes = (
        [m.strip() for m in args.mixes.split(",") if m.strip()]
        if args.mixes
        else [args.mix]
    )
    valid_mixes = mixes_for_cores(args.cores)
    bad_mixes = [m for m in mixes if m not in valid_mixes]
    if bad_mixes:
        return usage_error(
            f"unknown mix(es) for {args.cores} cores: {', '.join(bad_mixes)};"
            f" available mixes: {', '.join(valid_mixes)}"
        )
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    bad_modes = [m for m in modes if m not in ("fast", "traced", "mrc")]
    if bad_modes:
        return usage_error(
            f"unknown mode(s): {', '.join(bad_modes)}"
            " (use 'fast', 'traced' or 'mrc')"
        )
    # A gate comparison must never be set or tripped by a single noisy
    # sample: gated cells always take best-of-3 or better.
    repeats = max(3, args.repeats) if args.gate else args.repeats

    setup = ExperimentSetup(
        num_cores=args.cores, accesses_per_core=args.accesses_per_core
    )
    if args.schemes or args.mixes:
        # Matrix mode: fast-path throughput + allocation profile for
        # every (scheme, mix) cell; one history entry for the grid.
        results = []
        for scheme in schemes:
            for mix in mixes:
                result = measure_drive_throughput(
                    scheme=scheme,
                    mix=mix,
                    setup=setup,
                    mode="fast",
                    repeats=repeats,
                )
                results.append(result)
                print(
                    f"{scheme:>10}/{mix}:"
                    f" {result.records_per_second:10.0f}"
                    f" records/sec  (alloc peak"
                    f" {result.alloc_peak_bytes / 1024:.0f} KiB,"
                    f" {result.gc_collections} gc collections)"
                )
        if args.output:
            append_bench_record(results, args.output)
            print(f"appended entry to {args.output}")
        if args.gate:
            return gate_against_history(
                results,
                args.gate,
                threshold=args.gate_threshold,
                allow_missing=args.gate_allow_missing,
            )
        return EXIT_OK
    results = []
    reference: dict | None = None
    for mode in modes:
        if mode == "mrc":
            # A ghost pass estimates hit rates, it does not drive the
            # timing model — exempt from the cross-mode stats identity.
            result = measure_mrc_throughput(
                mix=args.mix, setup=setup, repeats=repeats
            )
            results.append(result)
            print(
                f"{result.mode:>6}: {result.records_per_second:10.0f}"
                f" records/sec  ({result.records} records,"
                f" {result.extra['points']} points, {result.extra['ghosts']} ghost"
                f" walks, best of {result.repeats};"
                f" {result.extra['full_sims_avoided']:g} full sims avoided,"
                f" {result.extra['dse_speedup']:g}x dse speedup)"
            )
            continue
        result = measure_drive_throughput(
            scheme=args.scheme,
            mix=args.mix,
            setup=setup,
            mode=mode,
            repeats=repeats,
        )
        if reference is None:
            reference = result.stats
        elif result.stats != reference:
            raise SystemExit(f"mode {mode!r} changed simulation statistics")
        results.append(result)
        print(
            f"{result.mode:>6}: {result.records_per_second:10.0f} records/sec"
            f"  ({result.records} records, best of {result.repeats})"
        )
    if len(results) >= 2 and results[0].records_per_second:
        for later in results[1:]:
            ratio = later.records_per_second / results[0].records_per_second
            print(f"{later.mode}/{results[0].mode}: {ratio:10.2f}x")
    if args.output:
        append_bench_record(results, args.output)
        print(f"appended entry to {args.output}")
    if args.gate:
        return gate_against_history(
            results,
            args.gate,
            threshold=args.gate_threshold,
            allow_missing=args.gate_allow_missing,
        )
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
