"""Fault isolation for grid campaigns: policy, collection and injection.

Long multiprocess campaigns (8 schemes x dozens of mixes x sweeps) fail
in ways a single-process run never sees: a worker raises on one
pathological cell, the kernel OOM-kills a process and the whole pool
breaks, a cell hangs on a degenerate configuration. This module holds
the pieces the hardened grid engine in :mod:`repro.harness.parallel`
composes:

* :class:`CellFailure` — the structured record of one permanently
  failed cell (exception type, message, traceback, attempt count, wall
  time, scheme/mix labels) that lands in the run manifest;
* :class:`FaultPolicy` — retry/timeout knobs resolved from the
  environment (``REPRO_CELL_RETRIES``, ``REPRO_CELL_TIMEOUT_S``,
  ``REPRO_CELL_BACKOFF_S``) with deterministic exponential backoff +
  jitter (seeded by cell index and attempt, never by wall clock, so
  retry schedules are reproducible);
* :func:`collect_failures` — a scoped collector; while one is active,
  ``run_grid`` records exhausted cells instead of propagating their
  exception, and the grid completes with every healthy cell intact;
* :func:`cell_timeout` — a SIGALRM-based wall-clock budget for serial
  (in-process) cells;
* :func:`inject` / :func:`injection_env` — a deterministic
  fault-injection harness for tests: make the Nth cell raise, hang,
  die by ``SIGKILL``, fail fatally (uncatchable), or fail only its
  first K attempts (``flaky``). The plan travels through the
  ``REPRO_FAULT_INJECT`` environment variable so pool workers and CLI
  subprocesses honour it too.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from repro.common.backoff import backoff_delay

__all__ = [
    "RETRIES_ENV",
    "TIMEOUT_ENV",
    "BACKOFF_ENV",
    "INJECT_ENV",
    "CellFailure",
    "CellTimeoutError",
    "DeadlineExceededError",
    "WorkerCrashError",
    "InjectedFault",
    "FatalInjectedFault",
    "FaultPolicy",
    "FailureCollector",
    "collect_failures",
    "active_collector",
    "cell_timeout",
    "deadline_scope",
    "deadline_remaining",
    "check_deadline",
    "InjectionPlan",
    "inject",
    "injection_env",
    "active_plan",
]

RETRIES_ENV = "REPRO_CELL_RETRIES"
TIMEOUT_ENV = "REPRO_CELL_TIMEOUT_S"
BACKOFF_ENV = "REPRO_CELL_BACKOFF_S"
INJECT_ENV = "REPRO_FAULT_INJECT"

_BACKOFF_DEFAULT_S = 0.05
_BACKOFF_CAP_S = 5.0


class CellTimeoutError(Exception):
    """A cell exceeded its wall-clock budget (``REPRO_CELL_TIMEOUT_S``)."""


class DeadlineExceededError(CellTimeoutError):
    """A whole-request deadline (:func:`deadline_scope`) elapsed.

    Distinct from a per-cell timeout: the grid engine *aborts* the run
    (it does not record a cell failure and move on), because the budget
    belongs to the request, not to any one cell. Cells finished before
    the abort are already checkpointed, so resubmitting the request
    resumes instead of recomputing.
    """


class WorkerCrashError(Exception):
    """A worker process died (signal / OOM kill) while running a cell."""


class InjectedFault(RuntimeError):
    """Deterministic test fault raised by the injection harness."""


class FatalInjectedFault(BaseException):
    """Injected fault the grid engine must NOT absorb (simulated crash).

    Derives from ``BaseException`` so per-cell isolation — which catches
    ``Exception`` — lets it abort the whole run, exactly like a real
    crash of the driving process.
    """


# ----------------------------------------------------------------------
# failure records
# ----------------------------------------------------------------------
@dataclass
class CellFailure:
    """One permanently failed grid cell, in manifest-ready form."""

    index: int
    exc_type: str
    message: str
    attempts: int
    wall_s: float = 0.0
    traceback: str = ""
    scheme: str | None = None
    mix: str | None = None

    @classmethod
    def from_exception(
        cls,
        index: int,
        exc: BaseException,
        *,
        attempts: int,
        wall_s: float = 0.0,
        **labels,
    ) -> "CellFailure":
        tb = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
        return cls(
            index=index,
            exc_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            wall_s=round(wall_s, 6),
            traceback=tb,
            **labels,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        """One table line: index, labels, exception, attempt count."""
        label = " ".join(
            f"{k}={v}" for k, v in (("scheme", self.scheme), ("mix", self.mix)) if v
        )
        msg = self.message.splitlines()[0] if self.message else ""
        return (
            f"cell {self.index:4d}  {label or '-':24s} "
            f"{self.exc_type}: {msg}  (attempts={self.attempts})"
        )


class FailureCollector:
    """Accumulates :class:`CellFailure` records across one invocation."""

    def __init__(self) -> None:
        self.failures: list[CellFailure] = []

    def record(self, failure: CellFailure) -> None:
        self.failures.append(failure)

    def as_dicts(self) -> list[dict]:
        return [f.to_dict() for f in self.failures]

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)


_collector: FailureCollector | None = None


@contextmanager
def collect_failures():
    """Scope in which grid cell failures are recorded, not propagated.

    Nested scopes stack: the innermost collector receives the records.
    """
    global _collector
    previous = _collector
    _collector = collector = FailureCollector()
    try:
        yield collector
    finally:
        _collector = previous


def active_collector() -> FailureCollector | None:
    return _collector


# ----------------------------------------------------------------------
# retry/timeout policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """Per-cell retry and wall-clock-timeout configuration."""

    retries: int = 0
    timeout_s: float | None = None
    backoff_s: float = _BACKOFF_DEFAULT_S

    @classmethod
    def from_env(cls) -> "FaultPolicy":
        return cls(
            retries=_int_env(RETRIES_ENV, 0),
            timeout_s=_float_env(TIMEOUT_ENV, None),
            backoff_s=_float_env(BACKOFF_ENV, _BACKOFF_DEFAULT_S) or 0.0,
        )

    def backoff(self, index: int, attempt: int) -> float:
        """Deterministic exponential backoff with jitter, in seconds.

        ``base * 2**(attempt-1) * (1 + jitter)`` where jitter in [0, 1)
        is a pure function of (cell index, attempt) — retry schedules
        never depend on wall clock or a shared RNG, so fault-path runs
        are reproducible.
        """
        if self.backoff_s <= 0:
            return 0.0
        return backoff_delay(index, attempt, self.backoff_s, _BACKOFF_CAP_S)


def _int_env(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        return default


def _float_env(name: str, default: float | None) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


# ----------------------------------------------------------------------
# serial wall-clock budget
# ----------------------------------------------------------------------
@contextmanager
def cell_timeout(seconds: float | None):
    """Raise :class:`CellTimeoutError` if the block outlives ``seconds``.

    SIGALRM-based, so it preempts even a hung C call or ``time.sleep``.
    A no-op when ``seconds`` is falsy, off the main thread, or on a
    platform without ``SIGALRM`` (pool workers get their budget from the
    parent's wait on the future instead).
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise CellTimeoutError(f"cell exceeded {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    # A longer budget overflows the host timer; TIMEOUT_MAX is centuries.
    signal.setitimer(signal.ITIMER_REAL, min(seconds, threading.TIMEOUT_MAX))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# whole-request deadlines
# ----------------------------------------------------------------------
# Thread-local because the server runs each request on a pool thread:
# a deadline installed around one request must never leak into another
# request executing concurrently on a sibling thread.
_deadline = threading.local()


@contextmanager
def deadline_scope(seconds: float | None):
    """Install a wall-clock budget covering the whole enclosed request.

    The scope records an absolute monotonic expiry; the grid engine
    consults it between cells (:func:`check_deadline`) and folds the
    remaining budget into its pool waits, so both serial and parallel
    grids stop promptly once the budget is gone. Nested scopes take the
    tighter expiry. A falsy ``seconds`` is a no-op.
    """
    if not seconds or seconds <= 0:
        yield
        return
    previous = getattr(_deadline, "expires_at", None)
    expires_at = time.monotonic() + seconds
    if previous is not None:
        expires_at = min(expires_at, previous)
    _deadline.expires_at = expires_at
    try:
        yield
    finally:
        _deadline.expires_at = previous


def deadline_remaining() -> float | None:
    """Seconds left in the active deadline scope (None: no deadline).

    May be <= 0 once the budget is spent; callers that only need a
    go/no-go check should use :func:`check_deadline` instead.
    """
    expires_at = getattr(_deadline, "expires_at", None)
    if expires_at is None:
        return None
    return expires_at - time.monotonic()


def check_deadline() -> None:
    """Raise :class:`DeadlineExceededError` if the scope's budget is gone."""
    remaining = deadline_remaining()
    if remaining is not None and remaining <= 0:
        raise DeadlineExceededError(
            "request deadline exceeded (budget spent before completion)"
        )


# ----------------------------------------------------------------------
# deterministic fault injection (tests, CI smoke runs)
# ----------------------------------------------------------------------
_HANG_DEFAULT_S = 3600.0


@dataclass(frozen=True)
class InjectionPlan:
    """Cell-index-keyed fault actions, fired at attempt start."""

    actions: dict = field(default_factory=dict)

    def spec_for(self, index: int) -> dict | None:
        return self.actions.get(index)

    def fire(self, index: int, attempt: int) -> None:
        """Perform the planned fault for ``index``, if any.

        ``attempt`` is 1-based; ``flaky`` specs only fail while
        ``attempt <= fails`` so retried cells recover deterministically.
        """
        spec = self.actions.get(index)
        if spec is None:
            return
        action = spec["action"]
        if action == "raise":
            raise InjectedFault(f"injected failure at cell {index}")
        if action == "flaky":
            if attempt <= int(spec.get("fails", 1)):
                raise InjectedFault(
                    f"injected flaky failure at cell {index} (attempt {attempt})"
                )
            return
        if action == "fatal":
            raise FatalInjectedFault(f"injected fatal crash at cell {index}")
        if action == "hang":
            time.sleep(float(spec.get("seconds", _HANG_DEFAULT_S)))
            return
        if action == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
            return
        raise ValueError(f"unknown injected action {action!r}")


def _normalize_spec(spec) -> dict:
    """``"hang:30"``/``"flaky:2"`` shorthand or an explicit dict."""
    if isinstance(spec, dict):
        out = dict(spec)
    else:
        name, _, arg = str(spec).partition(":")
        out = {"action": name}
        if arg:
            if name == "flaky":
                out["fails"] = int(arg)
            elif name == "hang":
                out["seconds"] = float(arg)
    if out.get("action") not in ("raise", "flaky", "fatal", "hang", "sigkill"):
        raise ValueError(f"unknown injected action {out.get('action')!r}")
    return out


def injection_env(plan: dict) -> dict[str, str]:
    """The environment carrying ``plan`` (for CLI subprocess tests)."""
    normalized = {
        str(int(index)): _normalize_spec(spec) for index, spec in plan.items()
    }
    return {INJECT_ENV: json.dumps(normalized, sort_keys=True)}


@contextmanager
def inject(plan: dict):
    """Activate a fault plan for the scope (env-propagated to workers)."""
    previous = os.environ.get(INJECT_ENV)
    os.environ[INJECT_ENV] = injection_env(plan)[INJECT_ENV]
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(INJECT_ENV, None)
        else:
            os.environ[INJECT_ENV] = previous


_plan_cache: tuple[str, InjectionPlan] | None = None


def active_plan() -> InjectionPlan | None:
    """The plan from ``REPRO_FAULT_INJECT``, or None (parse memoized)."""
    global _plan_cache
    raw = os.environ.get(INJECT_ENV, "").strip()
    if not raw:
        return None
    if _plan_cache is not None and _plan_cache[0] == raw:
        return _plan_cache[1]
    try:
        actions = {
            int(index): _normalize_spec(spec)
            for index, spec in json.loads(raw).items()
        }
    except (ValueError, TypeError, AttributeError):
        return None
    plan = InjectionPlan(actions=actions)
    _plan_cache = (raw, plan)
    return plan
