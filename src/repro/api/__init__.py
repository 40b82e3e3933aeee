"""``repro.api``: the typed public facade of the simulator.

Everything outside-world-facing goes through here: the CLI subcommands,
the ``repro serve`` daemon and library callers all build requests with
the facade constructors, execute them with the facade runners, and
exchange them as the frozen wire dataclasses. See ``docs/service.md``
for the socket protocol built on top.

    from repro import api

    request = api.sim_request("bimodal", "Q1")
    result = api.run_sim(request)          # locally, or
    result = api.ServiceClient().run_sim(request)   # on a warm daemon
"""

from repro.api.catalog import (
    ExperimentSpec,
    experiment_catalog,
    experiment_ids,
    get_experiment,
)
from repro.api.client import AsyncServiceClient, ServiceClient
from repro.api.errors import (
    ERR_BAD_REQUEST,
    ERR_BAD_SCHEMA,
    ERR_DEADLINE,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_PERF_GATE,
    EXIT_USAGE,
    RETRYABLE_CODES,
    RequestError,
    ServiceError,
)
from repro.api.facade import (
    api_error,
    dse_request,
    grid_request,
    grid_setup,
    health_result,
    progress_event,
    run_dse,
    run_grid,
    run_sim,
    sim_request,
    stats_result,
    validate_dse,
    validate_grid,
    validate_sim,
)
from repro.api.retry import RetryPolicy
from repro.api.types import (
    API_SCHEMA,
    API_SCHEMA_MIN,
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
from repro.api.wire import (
    WireError,
    decode_line,
    dumps_strict,
    encode_line,
    from_wire,
    loads_strict,
    to_wire,
)

__all__ = [
    "API_SCHEMA",
    "API_SCHEMA_MIN",
    "ApiError",
    "AsyncServiceClient",
    "ERR_BAD_REQUEST",
    "ERR_BAD_SCHEMA",
    "ERR_DEADLINE",
    "ERR_DRAINING",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "EXIT_OK",
    "EXIT_PARTIAL",
    "EXIT_PERF_GATE",
    "EXIT_USAGE",
    "DseRequest",
    "DseResult",
    "ExperimentSpec",
    "GridRequest",
    "GridResult",
    "HealthResult",
    "ProgressEvent",
    "RETRYABLE_CODES",
    "RequestError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "SimRequest",
    "SimResult",
    "StatsResult",
    "WireError",
    "api_error",
    "decode_line",
    "dse_request",
    "dumps_strict",
    "encode_line",
    "experiment_catalog",
    "experiment_ids",
    "from_wire",
    "get_experiment",
    "grid_request",
    "grid_setup",
    "health_result",
    "loads_strict",
    "progress_event",
    "run_dse",
    "run_grid",
    "run_sim",
    "sim_request",
    "stats_result",
    "to_wire",
    "validate_dse",
    "validate_grid",
    "validate_sim",
]
