"""Parallel experiment engine: fan (scheme, mix, setup) cells over processes.

Every figure in the harness is a grid of independent simulation cells —
one cache instance driven by one trace under one configuration. This
module gives them a single fan-out point: describe each cell as a small
picklable dataclass, hand the list to :func:`run_grid` with a worker
function, and get results back **in submission order**, bit-identical to
a serial run (each cell builds its own cache and trace from the cell's
parameters, so parallelism cannot perturb any RNG or timing state).

Worker processes return plain floats/dicts, never simulator objects:
caches hold posted-operation lambdas that do not pickle, and shipping a
few numbers keeps IPC negligible next to simulation time.

Job count: ``jobs`` (default 1) is the worker count, and ``jobs <= 0``
means one worker per CPU. One worker, or a single pending cell, runs
in-process with no pool; a failure to *create* the pool (e.g. a sandbox
forbidding fork) falls back to in-process execution with a one-line
warning naming the exception.

Every grid runs through one engine with per-cell isolation (see
:mod:`repro.harness.faults` and ``docs/robustness.md``). A worker
exception, a broken pool (worker killed by signal/OOM, raised as
:class:`~repro.harness.faults.WorkerCrashError`) or a wall-clock
timeout is retried per ``REPRO_CELL_RETRIES``/``REPRO_CELL_TIMEOUT_S``
with deterministic backoff. With a failure collector installed (the
``repro.api`` facade always installs one) a cell whose retries run out
is recorded as a structured :class:`~repro.harness.faults.CellFailure`
and yields ``None`` while every other cell completes; without one its
exception propagates. Completed cells are appended to an attached
checkpoint so a killed campaign resumes where it stopped.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TypeVar

from repro.bimodal.cache import BiModalConfig
from repro.cores.multiprog import MultiProgramRunner
from repro.harness import checkpoint, faults
from repro.harness.faults import (
    CellFailure,
    CellTimeoutError,
    FaultPolicy,
    WorkerCrashError,
)
from repro.harness.runner import ExperimentSetup, build_cache, run_scheme_on_mix
from repro.obs import get_metrics, get_tracer, profile_call, profile_dir
from repro.workloads.mixes import mixes_for_cores

__all__ = [
    "resolve_jobs",
    "run_grid",
    "progress_scope",
    "complete_groups",
    "GridCell",
    "AnttCell",
    "drive_cell",
    "antt_cell",
]

# Per-cell completion hook installed by progress_scope(); the hardened
# engine calls it as hook(done, total, attrs) after every finished cell
# (including checkpoint hits). One scope at a time — the facade only
# streams progress for one grid per process at once (grids serialize in
# the server), so a simple module global is enough.
_progress_hook = None


@contextmanager
def progress_scope(hook):
    """Route per-cell completion events to ``hook`` while active.

    ``hook(done, total, attrs)`` is invoked from the grid engine after
    each cell completes (``attrs`` carries scheme/mix labels when the
    cell exposes them). Hook exceptions are swallowed — progress
    reporting must never fail a simulation.
    """
    global _progress_hook
    previous = _progress_hook
    _progress_hook = hook
    try:
        yield
    finally:
        _progress_hook = previous

_Cell = TypeVar("_Cell")
_Result = TypeVar("_Result")

# Directory (env-propagated to workers) where workers drop "started"
# markers, so a broken pool can be attributed to the cells that were
# actually in flight rather than to whichever future the parent was
# awaiting.
_MARK_DIR_ENV = "REPRO_GRID_MARK_DIR"


def resolve_jobs(jobs: int) -> int:
    """Effective worker count: ``jobs``, or one per CPU when ``jobs <= 0``."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_grid(
    func: Callable[[_Cell], _Result],
    cells: Iterable[_Cell],
    *,
    jobs: int = 1,
) -> list:
    """Apply ``func`` to every cell, optionally across processes.

    Results come back in the order the cells were given regardless of
    completion order. A cell's exception propagates once its retries
    are spent, unless a failure collector is active (see the module
    docstring): then the cell is recorded and returned as ``None``.

    Observability: with tracing on (``REPRO_TRACE`` / ``--trace-out``)
    the grid streams one progress line per finished cell to stderr and
    emits ``grid``/``grid.cell`` events carrying per-cell wall time;
    with ``REPRO_PROFILE=<dir>`` each cell additionally runs under
    ``cProfile`` and dumps ``cell_<i>.prof``. Both paths wrap the
    worker *around* the cell function, so cell results are identical to
    the uninstrumented run.
    """
    workers = resolve_jobs(jobs)
    engine = _GridEngine(func, list(cells))
    with engine.tracer.span(
        "grid", cells=engine.total, workers=min(workers, max(engine.total, 1))
    ):
        pending = engine.pending_cells()
        if workers <= 1 or len(pending) <= 1:
            _serial_cells(engine, pending)
        else:
            _pool_cells(engine, pending, min(workers, len(pending)))
    return engine.results


def complete_groups(names: Iterable, results: list, size: int) -> list[tuple]:
    """``(name, chunk)`` pairs for groups whose ``size`` cells all completed.

    The row-assembly companion of the fault-tolerant grid: with a
    failure collector active, permanently failed cells come back as
    ``None`` (workers never legitimately return ``None``), and any row
    depending on one is dropped here — the grid's failure list carries
    the diagnosis — so a partial campaign still exports every intact
    row.
    """
    out = []
    for i, name in enumerate(names):
        chunk = results[i * size : (i + 1) * size]
        if len(chunk) == size and not any(r is None for r in chunk):
            out.append((name, chunk))
    return out


def _warn_pool_fallback(exc: BaseException, tracer) -> None:
    """A degraded (serial) run must be diagnosable, not silent."""
    print(
        f"[repro] worker pool unavailable ({type(exc).__name__}: {exc}); "
        "running cells serially",
        file=sys.stderr,
    )
    tracer.point(
        "grid.pool_fallback", exc=type(exc).__name__, message=str(exc)
    )
    get_metrics().add("grid.pool_fallbacks")


# ----------------------------------------------------------------------
# hardened engine (instrumentation, retries, timeouts, checkpointing)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CellCall:
    """Picklable wrapper timing (and optionally profiling) one attempt.

    Also the injection point for the deterministic fault harness and the
    writer of per-cell "started" markers used to attribute pool breaks.
    """

    func: Callable
    profile_to: str | None

    def __call__(self, job):
        index, attempt, cell = job
        mark_dir = os.environ.get(_MARK_DIR_ENV)
        if mark_dir:
            try:
                with open(os.path.join(mark_dir, f"{index}.started"), "w") as fh:
                    fh.write(str(attempt))
            except OSError:
                pass
        start = time.perf_counter()
        plan = faults.active_plan()
        if plan is not None:
            plan.fire(index, attempt)
        if self.profile_to is not None:
            result = profile_call(
                self.func, cell, label=f"cell_{index:04d}",
                out_dir=self.profile_to,
            )
        else:
            result = self.func(cell)
        return result, time.perf_counter() - start


def _cell_attrs(cell) -> dict:
    """Scheme/mix labels for progress lines, when the cell carries them."""
    attrs = {}
    for key in ("scheme", "mix"):
        value = getattr(cell, key, None)
        if isinstance(value, str):
            attrs[key] = value
    return attrs


class _GridEngine:
    """State machine for one fault-tolerant grid execution."""

    def __init__(self, func, cell_list):
        self.func = func
        self.cells = cell_list
        self.total = len(cell_list)
        self.tracer = get_tracer()
        self.policy = FaultPolicy.from_env()
        self.collector = faults.active_collector()
        self.ckpt = checkpoint.active()
        self.registry = get_metrics()
        prof = profile_dir()
        self.call = _CellCall(func, str(prof) if prof is not None else None)
        self.results: list = [None] * self.total
        self.done = [False] * self.total
        # Attempts *charged* against the retry budget (1-based once started).
        self.attempts = [0] * self.total
        self.keys = (
            [checkpoint.cell_key(func, cell) for cell in cell_list]
            if self.ckpt is not None
            else None
        )

    # ------------------------------------------------------------------
    def pending_cells(self) -> list[int]:
        """Indices still to run after serving checkpoint hits."""
        pending = []
        for i in range(self.total):
            if self.ckpt is not None:
                hit = self.ckpt.lookup(self.keys[i])
                if hit is not checkpoint.MISSING:
                    self.results[i] = hit
                    self.done[i] = True
                    self._note_success(i, 0.0, cached=True)
                    continue
            pending.append(i)
        return pending

    def succeed(self, index: int, value, wall: float) -> None:
        self.results[index] = value
        self.done[index] = True
        if self.ckpt is not None:
            self.ckpt.append(
                index=index, key=self.keys[index], result=value, wall_s=wall
            )
        self._note_success(index, wall)

    def should_retry(self, index: int, exc: BaseException) -> bool:
        """Charge one failed attempt; True if the cell gets another."""
        if self.attempts[index] <= self.policy.retries:
            self.registry.add("grid.cell_retries")
            self.tracer.point(
                "grid.cell_retry",
                index=index,
                attempt=self.attempts[index],
                exc=type(exc).__name__,
            )
            time.sleep(self.policy.backoff(index, self.attempts[index]))
            return True
        return False

    def fail(self, index: int, exc: BaseException, wall: float) -> None:
        """Retries exhausted: record (or propagate) the failure."""
        if self.collector is None:
            raise exc
        failure = CellFailure.from_exception(
            index,
            exc,
            attempts=self.attempts[index],
            wall_s=wall,
            **_cell_attrs(self.cells[index]),
        )
        self.collector.record(failure)
        self.registry.add("grid.cell_failures")
        self.tracer.point(
            "grid.cell_failed",
            index=index,
            total=self.total,
            exc=failure.exc_type,
            attempts=failure.attempts,
            **_cell_attrs(self.cells[index]),
        )
        if self.tracer.enabled:
            print(
                f"[repro] cell {index + 1}/{self.total} FAILED "
                f"{failure.exc_type} after {failure.attempts} attempt(s)",
                file=sys.stderr,
            )

    def _note_success(self, index: int, wall: float, *, cached: bool = False) -> None:
        attrs = _cell_attrs(self.cells[index])
        if cached:
            attrs["cached"] = True
        self.tracer.point(
            "grid.cell",
            index=index,
            total=self.total,
            wall_s=round(wall, 6),
            **attrs,
        )
        self.registry.add("grid.cells")
        self.registry.observe("grid.cell_wall_s", wall)
        if _progress_hook is not None:
            try:
                _progress_hook(sum(self.done), self.total, attrs)
            except Exception:
                pass
        if self.tracer.enabled:
            label = " ".join(f"{k}={v}" for k, v in attrs.items())
            print(
                f"[repro] cell {index + 1}/{self.total} {wall:7.2f}s {label}".rstrip(),
                file=sys.stderr,
            )


def _effective_timeout(policy_timeout: float | None) -> float | None:
    """Per-cell wait budget: the policy timeout capped by any deadline.

    With a :func:`~repro.harness.faults.deadline_scope` active, no
    single cell may wait past the request's remaining budget — the
    deadline degrades gracefully into a (shrinking) per-cell timeout.
    """
    remaining = faults.deadline_remaining()
    if remaining is None:
        return policy_timeout
    remaining = max(0.001, remaining)
    if policy_timeout is None:
        return remaining
    return min(policy_timeout, remaining)


def _serial_cells(engine: _GridEngine, pending: list[int]) -> None:
    """In-process execution with per-cell SIGALRM timeout and retries.

    An active deadline scope is checked before every attempt (and after
    a timeout) so an exhausted budget aborts the grid with
    :class:`~repro.harness.faults.DeadlineExceededError` instead of
    grinding through the remaining cells.
    """
    for i in pending:
        while True:
            faults.check_deadline()
            engine.attempts[i] += 1
            start = time.perf_counter()
            try:
                with faults.cell_timeout(
                    _effective_timeout(engine.policy.timeout_s)
                ):
                    value, wall = engine.call(
                        (i, engine.attempts[i], engine.cells[i])
                    )
            except Exception as exc:
                wall = time.perf_counter() - start
                # A timeout caused by the deadline, not the per-cell
                # policy, aborts the request rather than failing the cell.
                faults.check_deadline()
                if engine.should_retry(i, exc):
                    continue
                engine.fail(i, exc, wall)
                break
            engine.succeed(i, value, wall)
            break


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard — hung or orphaned workers included."""
    try:
        processes = list(pool._processes.values())  # noqa: SLF001
    except Exception:
        processes = []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in processes:
        try:
            proc.join(timeout=1.0)
        except Exception:
            pass


def _pool_cells(engine: _GridEngine, pending: list[int], max_workers: int) -> None:
    """Pool execution surviving worker exceptions, crashes and hangs.

    The parent consumes futures in submission order (preserving result
    and event ordering). A broken pool is attributed via the "started"
    markers workers drop, then rebuilt; unfinished cells are resubmitted
    without charging the innocents' retry budgets. A per-cell timeout
    bounds the wait for that cell's result.
    """
    mark_dir = tempfile.mkdtemp(prefix="repro-grid-")
    previous_mark = os.environ.get(_MARK_DIR_ENV)
    os.environ[_MARK_DIR_ENV] = mark_dir
    unfinished = set(pending)
    failed: set[int] = set()
    pool: ProcessPoolExecutor | None = None
    futures: dict = {}

    def submit(i: int) -> None:
        engine.attempts[i] += 1
        futures[i] = pool.submit(engine.call, (i, engine.attempts[i], engine.cells[i]))

    def resubmit_unfinished() -> None:
        # Same attempt numbers: an aborted-by-pool-break attempt was
        # already either charged (suspects) or innocent (no charge).
        for i in sorted(unfinished):
            _clear_marker(mark_dir, i)
            futures[i] = pool.submit(
                engine.call, (i, engine.attempts[i], engine.cells[i])
            )

    def rebuild_pool() -> None:
        nonlocal pool
        _kill_pool(pool)
        engine.registry.add("grid.pool_rebuilds")
        engine.tracer.point("grid.pool_rebuild", unfinished=len(unfinished))
        pool = ProcessPoolExecutor(max_workers=max_workers)
        resubmit_unfinished()

    try:
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        except (OSError, PermissionError) as exc:
            _warn_pool_fallback(exc, engine.tracer)
            _serial_cells(engine, pending)
            return
        for i in pending:
            submit(i)
        for i in pending:
            while i in unfinished:
                wait_start = time.perf_counter()
                wait_s = _effective_timeout(engine.policy.timeout_s)
                # A longer wait overflows the host's lock timer.
                timeout = None if wait_s is None else min(wait_s, threading.TIMEOUT_MAX)
                try:
                    value, wall = futures[i].result(timeout=timeout)
                except FuturesTimeoutError:
                    # Deadline spent (not a slow cell): abort the grid —
                    # the finally block below kills the pool and workers.
                    faults.check_deadline()
                    exc = CellTimeoutError(
                        f"no result within {wait_s:g}s wall-clock budget"
                    )
                    retry = engine.should_retry(i, exc)
                    if retry:
                        engine.attempts[i] += 1  # next attempt, via resubmit
                    else:
                        unfinished.discard(i)
                        failed.add(i)
                    # The hung worker still occupies a slot: replace the
                    # whole pool, then rerun everything unfinished.
                    rebuild_pool()
                    if not retry:
                        engine.fail(
                            i, exc, time.perf_counter() - wait_start
                        )
                except BrokenProcessPool:
                    _consume_survivors(engine, futures, unfinished)
                    suspects = _suspects(mark_dir, unfinished) or {i}
                    crashed = []
                    for j in sorted(suspects):
                        exc_j = WorkerCrashError(
                            "worker process died while running this cell "
                            "(pool broken; signal or OOM kill)"
                        )
                        if engine.should_retry(j, exc_j):
                            engine.attempts[j] += 1  # retried via resubmit
                        else:
                            unfinished.discard(j)
                            failed.add(j)
                            crashed.append((j, exc_j))
                    rebuild_pool()
                    for j, exc_j in crashed:
                        engine.fail(j, exc_j, 0.0)
                except Exception as exc:
                    wall = time.perf_counter() - wait_start
                    if engine.should_retry(i, exc):
                        submit(i)
                        continue
                    unfinished.discard(i)
                    failed.add(i)
                    engine.fail(i, exc, wall)
                else:
                    unfinished.discard(i)
                    engine.succeed(i, value, wall)
        pool.shutdown(wait=True)
        pool = None
    finally:
        if pool is not None:
            _kill_pool(pool)
        if previous_mark is None:
            os.environ.pop(_MARK_DIR_ENV, None)
        else:
            os.environ[_MARK_DIR_ENV] = previous_mark
        shutil.rmtree(mark_dir, ignore_errors=True)


def _consume_survivors(engine: _GridEngine, futures: dict, unfinished: set) -> None:
    """Harvest results that completed before the pool broke."""
    for j in sorted(unfinished):
        future = futures.get(j)
        if future is not None and future.done():
            try:
                value, wall = future.result(timeout=0)
            except Exception:
                continue
            unfinished.discard(j)
            engine.succeed(j, value, wall)


def _suspects(mark_dir: str, unfinished: set) -> set[int]:
    """Unfinished cells whose attempt had started when the pool broke."""
    out = set()
    for j in unfinished:
        if os.path.exists(os.path.join(mark_dir, f"{j}.started")):
            out.add(j)
    return out


def _clear_marker(mark_dir: str, index: int) -> None:
    try:
        os.unlink(os.path.join(mark_dir, f"{index}.started"))
    except OSError:
        pass


# ----------------------------------------------------------------------
# standard cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridCell:
    """One trace-driven run: scheme x mix under a setup (drive protocol)."""

    scheme: str
    mix: str
    setup: ExperimentSetup
    bimodal_config: BiModalConfig | None = None
    window: int = 16
    warmup_fraction: float = 0.5


def drive_cell(cell: GridCell) -> dict:
    """Worker: run one cell, return its stats snapshot (picklable)."""
    result = run_scheme_on_mix(
        cell.scheme,
        cell.mix,
        setup=cell.setup,
        bimodal_config=cell.bimodal_config,
        window=cell.window,
        warmup_fraction=cell.warmup_fraction,
    )
    return dict(result.stats)


@dataclass(frozen=True)
class AnttCell:
    """One ANTT measurement: multiprogrammed plus per-program standalone.

    Defaults mirror :class:`~repro.cores.multiprog.MultiProgramRunner`
    (``warmup_fraction=0.3``, ``intensity_scale=1.0``); the Figure 7/8
    protocol passes 0.5 and the setup's intensity explicitly.
    """

    scheme: str
    mix: str
    setup: ExperimentSetup
    accesses_per_core: int | None = None
    cache_mb: int | None = None
    bimodal_config: BiModalConfig | None = None
    warmup_fraction: float = 0.3
    intensity_scale: float = 1.0


def antt_cell(cell: AnttCell) -> float:
    """Worker: ANTT of one scheme on one mix (the paper's metric)."""
    setup = cell.setup
    mixes = mixes_for_cores(setup.num_cores)
    if cell.mix not in mixes:
        raise ValueError(
            f"unknown mix {cell.mix!r} for {setup.num_cores} cores"
        )
    mix = mixes[cell.mix]
    system = setup.system
    if cell.cache_mb is not None:
        system = system.scaled_cache(cell.cache_mb << 20)
    per_core = cell.accesses_per_core or setup.accesses_per_core
    total = per_core * setup.num_cores

    def factory():
        return build_cache(
            cell.scheme,
            system,
            scale=setup.scale,
            bimodal_config=cell.bimodal_config,
            adaptation_interval=max(1_000, total // 150),
        )

    runner = MultiProgramRunner(
        mix,
        factory,
        accesses_per_core=per_core,
        seed=setup.seed,
        footprint_scale=setup.footprint_scale,
        intensity_scale=cell.intensity_scale,
        warmup_fraction=cell.warmup_fraction,
    )
    antt, _ = runner.run_antt()
    return antt
