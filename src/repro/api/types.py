"""Wire types of the ``repro.api`` facade: the service's stable surface.

Every request/response exchanged between clients, the CLI and the
``repro serve`` daemon is one of the frozen, slotted dataclasses below.
They are deliberately dumb records:

* **frozen + slots** — a request cannot be mutated after validation, so
  a value the facade accepted is the value the engine runs;
* **schema-versioned** — every instance carries ``schema``
  (:data:`API_SCHEMA`); decoders reject other versions instead of
  guessing (see :mod:`repro.api.wire`);
* **constructed only via the facade** — :mod:`repro.api.facade` is the
  single place validation and defaulting happen, enforced by the
  ``api-stability`` simlint rule (``docs/static-analysis.md``).

Field values are restricted to JSON scalars, tuples and flat dicts so
instances round-trip bit-identically through the newline-delimited JSON
protocol (``docs/service.md``). Sequence-valued stats follow the
repo-wide convention of tuples, never lists (see
``repro.harness.checkpoint``); the wire codec revives them on decode.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "API_SCHEMA",
    "API_SCHEMA_MIN",
    "ApiError",
    "DseRequest",
    "DseResult",
    "GridRequest",
    "GridResult",
    "HealthResult",
    "ProgressEvent",
    "SimRequest",
    "SimResult",
    "StatsResult",
]

#: Version of the request/response schema. Bump on any change to the
#: dataclasses below; decoders reject versions outside
#: [:data:`API_SCHEMA_MIN`, :data:`API_SCHEMA`].
#:
#: v2 (additive over v1): ``deadline_s`` on SimRequest/GridRequest,
#: the ``HealthResult`` type and the ``health`` protocol verb.
#:
#: v3 (additive over v2): the ``DseRequest``/``DseResult`` types and
#: the ``dse`` protocol verb (MRC-guided design-space exploration).
#:
#: v4 (removal): the ``backend`` field of SimRequest/GridRequest/
#: DseRequest/SimResult is gone with the vectorized drive engine; an
#: older payload carrying ``backend: "scalar"`` decodes with the field
#: dropped, any other value is refused (see :mod:`repro.api.wire`).
API_SCHEMA = 4

#: Oldest wire schema this build still decodes. Every field added
#: since it has a default, so a v1 payload decodes into the current
#: dataclass with the new fields defaulted (skew-tolerant decode —
#: old clients keep working against a new server and vice versa).
API_SCHEMA_MIN = 1


@dataclass(frozen=True, slots=True)
class SimRequest:
    """One trace-driven simulation: scheme x mix under a configuration.

    Mirrors :class:`~repro.harness.runner.ExperimentSetup` plus the
    drive parameters of ``run_scheme_on_mix``; the facade validates
    every field against the same catalogs the CLI uses.
    ``deadline_s`` (0 = none) is a wall-clock budget enforced by the
    server/facade; past it the request fails with the typed
    ``deadline_exceeded`` error instead of running open-endedly.
    """

    scheme: str
    mix: str
    cores: int = 4
    accesses_per_core: int = 20_000
    seed: int = 1
    scale: int = 16
    window: int = 16
    warmup_fraction: float = 0.5
    deadline_s: float = 0.0
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class GridRequest:
    """One experiment grid (a figure/table id), optionally restricted.

    ``mixes=()`` means the experiment's full mix set; ``cores=0`` means
    the experiment's default core count; ``jobs=0`` means one worker
    per CPU (the CLI's ``--jobs auto``). ``deadline_s``
    (0 = none) is a wall-clock budget checked at grid-cell boundaries;
    a grid that blows it fails with ``deadline_exceeded`` — cells
    already checkpointed stay durable, so a resubmit resumes.
    """

    experiment: str
    mixes: tuple[str, ...] = ()
    cores: int = 0
    accesses_per_core: int = 20_000
    seed: int = 1
    scale: int = 16
    jobs: int = 1
    deadline_s: float = 0.0
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class DseRequest:
    """One design-space exploration (``repro dse``; docs/dse.md).

    The driver estimates every point of the default design space with
    one MRC ghost pass per mix, then spends timing simulations only on
    the estimated Pareto frontier. ``sample_rate`` (0 < r <= 1) is the
    deterministic trace-sampling rate of the ghost pass;
    ``max_frontier`` caps how many points graduate to timing
    simulation. ``mixes=()`` means the core count's full mix set.
    Other fields mirror :class:`GridRequest`.
    """

    mixes: tuple[str, ...] = ()
    cores: int = 4
    accesses_per_core: int = 20_000
    seed: int = 1
    scale: int = 16
    jobs: int = 1
    sample_rate: float = 1.0
    max_frontier: int = 8
    deadline_s: float = 0.0
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class DseResult:
    """Completed exploration: ranked rows, the winner, cost accounting.

    ``rows`` has one flat dict per design point (estimate, frontier
    membership, simulated fraction, measured hit rate when simulated);
    ``winner`` is the fully-simulated row with the best measured hit
    rate (empty when every simulation cell failed). ``stats`` carries
    the cost accounting, including ``speedup`` (exhaustive full-sim
    count over full-sim equivalents spent) and ``full_sims_avoided``.
    """

    status: str
    rows: tuple
    winner: dict
    stats: dict
    failures: tuple = ()
    resumed_cells: int = 0
    wall_s: float = 0.0
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class ProgressEvent:
    """One progress notification streamed while a request runs.

    ``stage`` is one of ``queued`` / ``started`` / ``cell`` /
    ``attached`` / ``recovered``; ``completed``/``total`` count grid
    cells when known (0/0 otherwise).
    """

    stage: str
    request_id: str = ""
    completed: int = 0
    total: int = 0
    detail: str = ""
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class SimResult:
    """Final stats of one simulation (the drive's stats snapshot).

    ``stats`` holds the flat stats-protocol keys
    (``docs/observability.md``); ``wall_s`` is server/facade wall time
    and is excluded from byte-identity comparisons.
    """

    scheme: str
    mix: str
    cores: int
    seed: int
    records: int
    end_time: int
    stats: dict
    wall_s: float = 0.0
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class GridResult:
    """Completed experiment grid: its rows plus the failure record.

    ``status`` is ``ok`` or ``partial`` (some cells permanently failed;
    the CLI maps ``partial`` to exit code 3). ``resumed_cells`` counts
    cells served from a checkpoint instead of recomputed.
    """

    experiment: str
    status: str
    rows: tuple
    failures: tuple = ()
    resumed_cells: int = 0
    wall_s: float = 0.0
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class StatsResult:
    """Live telemetry: the metrics registry plus service counters.

    ``metrics`` is ``MetricsRegistry.snapshot()`` of the serving
    process, ``trace_cache`` the materialization-cache hit/miss
    counters, ``server`` the daemon's own bookkeeping (queue depths,
    jobs done, recoveries) — empty when queried outside ``repro serve``.
    """

    metrics: dict
    trace_cache: dict
    server: dict
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class HealthResult:
    """Liveness/readiness snapshot (the ``health`` protocol verb).

    ``state`` is the daemon's lifecycle phase — ``starting`` (bound,
    still re-queueing crash-recovery work), ``serving`` (accepting
    requests) or ``draining`` (shutdown requested: no new work
    admitted, in-flight work finishing or checkpointing). ``queued``/
    ``inflight`` are live queue depths, ``connections`` the number of
    client connections accepted so far.
    """

    state: str
    queued: int = 0
    inflight: int = 0
    connections: int = 0
    detail: str = ""
    schema: int = API_SCHEMA


@dataclass(frozen=True, slots=True)
class ApiError:
    """Typed error envelope; ``code`` is machine-readable.

    Codes: ``bad-request`` (validation), ``bad-schema`` (version or
    malformed wire payload), ``overloaded`` (admission control),
    ``deadline_exceeded`` (the request's ``deadline_s`` elapsed),
    ``draining`` (server is shutting down; resubmit after restart),
    ``internal`` (unexpected server-side failure).
    """

    code: str
    message: str
    schema: int = API_SCHEMA
