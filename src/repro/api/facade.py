"""The one place requests are defaulted, validated and executed.

Every entry point — ``repro run``/``repro dse`` on the command line,
the ``repro serve`` daemon, library callers — goes through this module,
so scheme/mix/experiment resolution and parameter validation live
exactly once:

* :func:`sim_request` / :func:`grid_request` build validated request
  objects (rejecting bad ones with :class:`~repro.api.errors.RequestError`,
  which the CLI maps to exit code 2);
* :func:`run_sim` / :func:`run_grid` execute them on the harness,
  returning wire-ready results;
* :func:`stats_result` snapshots live telemetry (the ``stats``
  protocol verb).

The request is the whole configuration: its settings (``jobs``, the
mix subset) reach the experiment as ordinary arguments, and an unset
``jobs`` means one worker. ``run_grid`` and ``run_dse`` share one
execution scope (deadline, failure collector, checkpoint, progress
hook and ``run`` span), so the two differ only in what they call.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import fields

from repro.api import catalog
from repro.api.errors import ERR_DEADLINE, RequestError
from repro.api.types import (
    ApiError,
    DseRequest,
    DseResult,
    GridRequest,
    GridResult,
    HealthResult,
    ProgressEvent,
    SimRequest,
    SimResult,
    StatsResult,
)

__all__ = [
    "api_error",
    "dse_request",
    "grid_request",
    "grid_setup",
    "health_result",
    "progress_event",
    "run_dse",
    "run_grid",
    "run_sim",
    "sim_request",
    "stats_result",
    "validate_dse",
    "validate_grid",
    "validate_sim",
]

_VALID_CORES = (4, 8, 16)


# ----------------------------------------------------------------------
# construction (defaulting)
# ----------------------------------------------------------------------
def _reject_backend(backend: str | None) -> None:
    """Refuse a stale caller that still asks for a drive engine.

    The ``backend`` keyword survives only so such callers fail loudly:
    ``None`` and ``"scalar"`` (the one engine left) are ignored.
    """
    if backend not in (None, "scalar"):
        raise RequestError(
            f"backend {backend!r} is not available: the vectorized drive "
            "backend was removed in API schema 4 and every run uses the "
            "scalar engine; drop the backend argument"
        )


def _resolve_jobs(jobs: int | str | None) -> int:
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return 0
        try:
            jobs = int(jobs)
        except ValueError:
            raise RequestError(f"jobs must be a number or 'auto' (got {jobs!r})")
    return jobs


def _mix_tuple(mixes):
    # A lone name stays whole, for the validator to refuse, not split.
    return mixes if isinstance(mixes, str) else tuple(mixes or ())


def sim_request(
    scheme: str,
    mix: str,
    *,
    cores: int = 4,
    accesses_per_core: int = 20_000,
    seed: int = 1,
    scale: int = 16,
    backend: str | None = None,
    window: int = 16,
    warmup_fraction: float = 0.5,
    deadline_s: float = 0.0,
) -> SimRequest:
    """A validated :class:`SimRequest` (the only sanctioned constructor)."""
    _reject_backend(backend)
    request = SimRequest(
        scheme=scheme,
        mix=mix,
        cores=cores,
        accesses_per_core=accesses_per_core,
        seed=seed,
        scale=scale,
        window=window,
        warmup_fraction=warmup_fraction,
        deadline_s=deadline_s,
    )
    validate_sim(request)
    return request


def grid_request(
    experiment: str,
    *,
    mixes=(),
    cores: int | None = None,
    accesses_per_core: int = 20_000,
    seed: int = 1,
    scale: int = 16,
    backend: str | None = None,
    jobs: int | str | None = None,
    deadline_s: float = 0.0,
) -> GridRequest:
    """A validated :class:`GridRequest` (the only sanctioned constructor)."""
    _reject_backend(backend)
    request = GridRequest(
        experiment=experiment,
        mixes=_mix_tuple(mixes),
        cores=cores or 0,
        accesses_per_core=accesses_per_core,
        seed=seed,
        scale=scale,
        jobs=_resolve_jobs(jobs),
        deadline_s=deadline_s,
    )
    validate_grid(request)
    return request


def dse_request(
    *,
    mixes=(),
    cores: int = 4,
    accesses_per_core: int = 20_000,
    seed: int = 1,
    scale: int = 16,
    backend: str | None = None,
    jobs: int | str | None = None,
    sample_rate: float = 1.0,
    max_frontier: int = 8,
    deadline_s: float = 0.0,
) -> DseRequest:
    """A validated :class:`DseRequest` (the only sanctioned constructor)."""
    _reject_backend(backend)
    request = DseRequest(
        mixes=_mix_tuple(mixes),
        cores=cores,
        accesses_per_core=accesses_per_core,
        seed=seed,
        scale=scale,
        jobs=_resolve_jobs(jobs),
        sample_rate=sample_rate,
        max_frontier=max_frontier,
        deadline_s=deadline_s,
    )
    validate_dse(request)
    return request


# ----------------------------------------------------------------------
# validation (shared by constructors, server decode path and the CLI)
# ----------------------------------------------------------------------
# A request field's declared type, as the value test and the words
# that name it in a refusal.
_DECLARED = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "tuple[str, ...]": (tuple, "a list of names"),
}


def _check_types(request) -> None:
    """Refuse a field whose value is not of its declared type.

    A wire payload can carry any JSON value in any field, and the
    comparisons that follow would raise ``TypeError`` on the wrong one.
    """
    for field in fields(request):
        kind, label = _DECLARED[field.type]
        value = getattr(request, field.name)
        if (
            isinstance(value, bool)
            or not isinstance(value, kind)
            or (kind is tuple and not all(isinstance(v, str) for v in value))
        ):
            raise RequestError(f"{field.name} must be {label} (got {value!r})")


def _check_common(request) -> None:
    if request.accesses_per_core <= 0:
        raise RequestError(
            f"accesses_per_core must be positive (got {request.accesses_per_core})"
        )
    if request.scale < 1:
        raise RequestError(f"scale must be >= 1 (got {request.scale})")
    if request.scale & (request.scale - 1):
        # every cache capacity divides by it and must stay a power of two
        raise RequestError(f"scale must be a power of two (got {request.scale})")
    if request.seed < 0:
        raise RequestError(f"seed must be >= 0 (got {request.seed})")
    if not 0 <= request.deadline_s < math.inf:
        raise RequestError(
            f"deadline_s must be finite and >= 0 (got {request.deadline_s}); "
            "0 means no deadline"
        )


def validate_sim(request: SimRequest) -> None:
    """Reject a bad :class:`SimRequest` before any simulation starts."""
    from repro.harness.schemes import UnknownSchemeError, get_scheme
    from repro.workloads.mixes import mixes_for_cores

    _check_types(request)
    try:
        get_scheme(request.scheme)
    except UnknownSchemeError as exc:
        # The exception text already lists every registered scheme —
        # the same catalog `repro list-schemes` prints.
        raise RequestError(
            f"{exc} (see `python -m repro list-schemes`)"
        ) from None
    if request.cores not in _VALID_CORES:
        raise RequestError(f"cores must be 4, 8 or 16 (got {request.cores})")
    if request.mix not in mixes_for_cores(request.cores):
        raise RequestError(
            f"unknown mix {request.mix!r} for {request.cores} cores"
        )
    _check_common(request)
    if request.window <= 0:
        raise RequestError(f"window must be positive (got {request.window})")
    if not 0.0 <= request.warmup_fraction < 1.0:
        raise RequestError(
            f"warmup_fraction must be in [0, 1) (got {request.warmup_fraction})"
        )


def validate_grid(request: GridRequest) -> None:
    """Reject a bad :class:`GridRequest` before any simulation starts."""
    from repro.workloads.mixes import mixes_for_cores

    _check_types(request)
    try:
        spec = catalog.get_experiment(request.experiment)
    except KeyError as exc:
        raise RequestError(str(exc).strip("'\"")) from None
    if not spec.needs_setup:
        # Tables and Figure 3 run no workload: a mix or core count would
        # be validated and then silently ignored.
        ignored = [name for name in ("mixes", "cores") if getattr(request, name)]
        if ignored:
            raise RequestError(
                f"{spec.name} runs no workload, so it takes no "
                f"{' or '.join(ignored)}"
            )
    if request.cores and request.cores not in _VALID_CORES:
        raise RequestError(f"cores must be 4, 8 or 16 (got {request.cores})")
    if request.jobs < 0:
        raise RequestError(f"jobs must be >= 0 (got {request.jobs})")
    _check_common(request)
    if request.mixes:
        cores = request.cores or spec.default_cores
        known = mixes_for_cores(cores)
        unknown = [m for m in request.mixes if m not in known]
        if unknown:
            raise RequestError(
                f"unknown mix(es) {', '.join(unknown)} for {cores} cores "
                f"(known: {', '.join(sorted(known))})"
            )


def validate_dse(request: DseRequest) -> None:
    """Reject a bad :class:`DseRequest` before any estimation starts."""
    from repro.workloads.mixes import mixes_for_cores

    _check_types(request)
    if request.cores not in _VALID_CORES:
        raise RequestError(f"cores must be 4, 8 or 16 (got {request.cores})")
    if request.jobs < 0:
        raise RequestError(f"jobs must be >= 0 (got {request.jobs})")
    if not 0.0 < request.sample_rate <= 1.0:
        raise RequestError(
            f"sample_rate must be in (0, 1] (got {request.sample_rate})"
        )
    if request.max_frontier < 1:
        raise RequestError(
            f"max_frontier must be >= 1 (got {request.max_frontier})"
        )
    _check_common(request)
    if request.mixes:
        known = mixes_for_cores(request.cores)
        unknown = [m for m in request.mixes if m not in known]
        if unknown:
            raise RequestError(
                f"unknown mix(es) {', '.join(unknown)} for "
                f"{request.cores} cores (known: {', '.join(sorted(known))})"
            )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_sim(request: SimRequest) -> SimResult:
    """Execute one validated simulation request to completion.

    ``deadline_s > 0`` bounds the wall-clock budget: on the main thread
    the SIGALRM cell timeout interrupts an overrunning simulation; on
    worker threads (the server pool) the daemon enforces the budget by
    abandoning the wait instead. Either way the caller sees a typed
    ``deadline_exceeded`` :class:`~repro.api.errors.RequestError`.
    """
    from repro.harness import faults
    from repro.harness.runner import ExperimentSetup, run_scheme_on_mix

    validate_sim(request)
    setup = ExperimentSetup(
        num_cores=request.cores,
        scale=request.scale,
        accesses_per_core=request.accesses_per_core,
        seed=request.seed,
    )
    start = time.perf_counter()
    try:
        with faults.cell_timeout(request.deadline_s or None):
            result = run_scheme_on_mix(
                request.scheme,
                request.mix,
                setup=setup,
                window=request.window,
                warmup_fraction=request.warmup_fraction,
            )
    except faults.CellTimeoutError:
        raise RequestError(
            f"deadline of {request.deadline_s:g}s exceeded before the "
            "simulation finished",
            code=ERR_DEADLINE,
        ) from None
    return SimResult(
        scheme=request.scheme,
        mix=request.mix,
        cores=request.cores,
        seed=request.seed,
        records=result.accesses,
        end_time=result.end_time,
        stats=dict(result.stats),
        wall_s=round(time.perf_counter() - start, 6),
    )


def grid_setup(request: GridRequest | DseRequest):
    """The :class:`ExperimentSetup` a grid or dse request runs under.

    None for the experiments that take no setup (tables and Figure 3).
    """
    from repro.harness.runner import ExperimentSetup

    cores = request.cores
    if isinstance(request, GridRequest):
        spec = catalog.get_experiment(request.experiment)
        if not spec.needs_setup:
            return None
        cores = cores or spec.default_cores
    return ExperimentSetup(
        num_cores=cores,
        scale=request.scale,
        accesses_per_core=request.accesses_per_core,
        seed=request.seed,
    )


def run_grid(
    request: GridRequest,
    *,
    progress=None,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> GridResult:
    """Execute one validated experiment grid to completion.

    ``progress`` (optional) receives a :class:`ProgressEvent` per
    completed grid cell. ``checkpoint_path`` attaches the crash-safe
    cell checkpoint (``docs/robustness.md``); with ``resume=True``
    cells already recorded there are served instead of recomputed.

    Cell failures never propagate: they are collected, and a grid that
    completes with failures comes back with ``status="partial"`` and
    the structured failure records attached.
    """
    import repro.harness.experiments as experiments

    validate_grid(request)
    fn = getattr(experiments, catalog.get_experiment(request.experiment).attr)
    setup = grid_setup(request)
    kwargs: dict = {}
    if setup is not None:
        kwargs = {"setup": setup, "jobs": request.jobs, "mix_names": list(request.mixes)}
    outcome, meta = _execute(
        request.experiment,
        request.deadline_s,
        lambda: {"rows": fn(**kwargs)},
        progress=progress,
        checkpoint_path=checkpoint_path,
        resume=resume,
    )
    return GridResult(
        experiment=request.experiment, rows=tuple(outcome["rows"]), **meta
    )


def run_dse(
    request: DseRequest,
    *,
    progress=None,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> DseResult:
    """Execute one validated design-space exploration to completion.

    Same execution contract as :func:`run_grid`: per-cell progress
    events, optional crash-safe checkpoint (both the estimation pass
    and the timing cells checkpoint, so a killed exploration resumes),
    collected cell failures (``status="partial"``), and a typed
    ``deadline_exceeded`` error when ``deadline_s`` runs out.
    """
    from repro.mrc.dse import run_design_space

    validate_dse(request)
    setup = grid_setup(request)
    outcome, meta = _execute(
        "dse",
        request.deadline_s,
        lambda: run_design_space(
            setup=setup,
            mix_names=list(request.mixes),
            sample_rate=request.sample_rate,
            max_frontier=request.max_frontier,
            jobs=request.jobs,
        ),
        progress=progress,
        checkpoint_path=checkpoint_path,
        resume=resume,
    )
    return DseResult(
        rows=tuple(outcome["rows"]),
        winner=dict(outcome["winner"] or {}),
        stats=dict(outcome["stats"]),
        **meta,
    )


def _execute(
    experiment: str,
    deadline_s: float,
    call,
    *,
    progress,
    checkpoint_path: str | None,
    resume: bool,
) -> tuple[dict, dict]:
    """Run ``call()`` inside the one execution scope every grid shares.

    The scope is the request's deadline (``deadline_s``, 0 = none), a
    failure collector, the optional checkpoint and progress hook, and a
    ``run`` span carrying the row count (and the exploration's speedup).
    ``call`` returns a dict with at least ``rows``; ``_execute`` returns
    it beside the result fields both result types share (``status``,
    ``failures``, ``resumed_cells``, ``wall_s``). An exhausted deadline
    becomes the typed ``deadline_exceeded`` :class:`RequestError`; cells
    finished before it are checkpointed (when a checkpoint is attached),
    so resubmitting the same request resumes where this attempt stopped.
    """
    from repro.harness import checkpoint as checkpoint_module
    from repro.harness import faults, parallel
    from repro.obs import get_tracer

    tracer = get_tracer()
    start = time.perf_counter()
    resumed = 0
    try:
        with ExitStack() as stack:
            stack.enter_context(faults.deadline_scope(deadline_s or None))
            collector = stack.enter_context(faults.collect_failures())
            ckpt = None
            if checkpoint_path:
                ckpt = stack.enter_context(
                    checkpoint_module.attach(checkpoint_path, resume=resume)
                )
            if progress is not None:
                stack.enter_context(
                    parallel.progress_scope(_cell_progress(progress))
                )
            with tracer.span("run", experiment=experiment) as span:
                outcome = call()
                if tracer.enabled:
                    span["rows"] = len(outcome["rows"])
                    if "stats" in outcome:
                        span["speedup"] = outcome["stats"]["speedup"]
            if ckpt is not None:
                resumed = ckpt.hits
    except faults.DeadlineExceededError:
        raise RequestError(
            f"deadline of {deadline_s:g}s exceeded before "
            f"{experiment} finished",
            code=ERR_DEADLINE,
        ) from None
    failures = tuple(collector.as_dicts())
    return outcome, {
        "status": "partial" if failures else "ok",
        "failures": failures,
        "resumed_cells": resumed,
        "wall_s": round(time.perf_counter() - start, 6),
    }


def _cell_progress(emit):
    """Adapt the grid engine's per-cell hook to ProgressEvent emission."""

    def hook(done: int, total: int, attrs: dict) -> None:
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        emit(progress_event("cell", completed=done, total=total, detail=detail))

    return hook


def stats_result(server: dict | None = None) -> StatsResult:
    """Live telemetry snapshot (the ``stats`` protocol verb)."""
    from repro.obs import get_metrics
    from repro.workloads.trace_cache import cache_stats

    return StatsResult(
        metrics=dict(get_metrics().snapshot()),
        trace_cache=dict(cache_stats()),
        server=dict(server or {}),
    )


# ----------------------------------------------------------------------
# factories for the remaining wire types
# ----------------------------------------------------------------------
# The server and clients build events/errors through these, never by
# instantiating the dataclasses directly (the api-stability simlint
# rule enforces it), so any future defaulting has one home.
def progress_event(
    stage: str,
    *,
    request_id: str = "",
    completed: int = 0,
    total: int = 0,
    detail: str = "",
) -> ProgressEvent:
    return ProgressEvent(
        stage=stage,
        request_id=request_id,
        completed=completed,
        total=total,
        detail=detail,
    )


def api_error(code: str, message: str) -> ApiError:
    return ApiError(code=code, message=message)


def health_result(
    state: str,
    *,
    queued: int = 0,
    inflight: int = 0,
    connections: int = 0,
    detail: str = "",
) -> HealthResult:
    """The ``health`` verb's answer (``starting``/``serving``/``draining``)."""
    if state not in ("starting", "serving", "draining"):
        raise RequestError(f"unknown health state {state!r}")
    return HealthResult(
        state=state,
        queued=queued,
        inflight=inflight,
        connections=connections,
        detail=detail,
    )
