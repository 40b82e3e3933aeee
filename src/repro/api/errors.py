"""Error and exit-code contract shared by the CLI, facade and server.

One table of process exit codes, used identically by ``repro run``,
``repro dse`` and ``repro serve``, so scripting against any entry point
reads the same contract:

======  ==========================================================
0       success
2       bad request/configuration (one-line ``error: ...`` on stderr)
3       grid completed but one or more cells permanently failed
======  ==========================================================

:class:`RequestError` is how the facade rejects invalid requests; it
carries the :class:`~repro.api.types.ApiError` envelope the server
puts on the wire, and the CLI maps it to exit code 2.
:class:`ServiceError` is its client-side mirror: raised by
:mod:`repro.api.client` when the server answers with an error envelope.
"""

from __future__ import annotations

from repro.api.types import ApiError

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_PARTIAL",
    "ERR_BAD_REQUEST",
    "ERR_BAD_SCHEMA",
    "ERR_DEADLINE",
    "ERR_DRAINING",
    "ERR_OVERLOADED",
    "ERR_INTERNAL",
    "RETRYABLE_CODES",
    "RequestError",
    "ServiceError",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3

ERR_BAD_REQUEST = "bad-request"
ERR_BAD_SCHEMA = "bad-schema"
ERR_OVERLOADED = "overloaded"
ERR_INTERNAL = "internal"
#: The request's ``deadline_s`` wall-clock budget elapsed before it
#: finished. Completed grid cells stay checkpointed, so a resubmit
#: (with a larger budget) resumes rather than recomputes.
ERR_DEADLINE = "deadline_exceeded"
#: The server is draining (SIGTERM/SIGINT received): no new work is
#: admitted; resubmit after the restart — journaled grids recover.
ERR_DRAINING = "draining"

#: Error codes a client may safely retry against the same request:
#: transient server conditions, not properties of the request itself.
RETRYABLE_CODES = (ERR_OVERLOADED, ERR_DRAINING)


class RequestError(ValueError):
    """A request the facade refuses; message is one clean line."""

    def __init__(self, message: str, *, code: str = ERR_BAD_REQUEST) -> None:
        super().__init__(message)
        self.code = code

    def envelope(self) -> ApiError:
        return ApiError(code=self.code, message=str(self))


class ServiceError(RuntimeError):
    """The server answered a request with an error envelope."""

    def __init__(self, error: ApiError) -> None:
        super().__init__(f"{error.code}: {error.message}")
        self.error = error

    @property
    def code(self) -> str:
        return self.error.code
