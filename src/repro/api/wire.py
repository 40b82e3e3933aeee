"""Wire codec: ``repro.api`` dataclasses <-> newline-delimited JSON.

One dict shape per type::

    {"type": "SimRequest", "schema": 4, "scheme": "bimodal", ...}

``to_wire``/``from_wire`` convert between instances and those dicts;
``encode_line``/``decode_line`` add the JSON + newline framing the
socket protocol uses (``docs/service.md``). Decoding is strict:

* unknown ``type`` names, missing required fields and unexpected
  fields are :class:`WireError`\\ s (a typo'd request must fail loudly,
  not half-apply);
* a ``schema`` outside [:data:`~repro.api.types.API_SCHEMA_MIN`,
  :data:`~repro.api.types.API_SCHEMA`] is rejected. Older schemas in
  that range decode *skew-tolerantly*: every field added since them
  has a default, so a v1 payload instantiates the current dataclass
  with the new fields defaulted and its ``schema`` normalized to the
  current version (re-encoding, content-addressing and equality all
  see one canonical form);
* the ``backend`` field that schemas 1-3 carried on the request types
  and :class:`~repro.api.types.SimResult` was removed in schema 4. An
  older payload's ``backend: "scalar"`` (the only engine left) is
  dropped; any other value, or the field in a v4 payload, is a
  :class:`WireError` naming the removal;
* non-finite floats (NaN/Infinity) are rejected in both directions —
  they are not representable in interoperable JSON, so a stats payload
  carrying one fails with a typed error instead of emitting a frame
  only Python's parser can read back.

Byte-identity through the wire: JSON maps tuples to arrays, so decode
revives arrays as *tuples* — recursively, inside dict-valued fields too
— matching the grid/checkpoint convention that sequence-valued stats
are tuples, never lists (see ``repro.harness.checkpoint``). Ints and
finite floats round-trip exactly (``repr`` round trip), so a result
decoded from the wire compares equal to the instance the server
encoded.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass

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

__all__ = [
    "WIRE_TYPES",
    "WireError",
    "decode_line",
    "dumps_strict",
    "encode_line",
    "from_wire",
    "loads_strict",
    "to_wire",
]


class WireError(ValueError):
    """Malformed or version-incompatible wire payload."""


#: Every encodable/decodable dataclass, by wire ``type`` name.
WIRE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SimRequest,
        GridRequest,
        DseRequest,
        ProgressEvent,
        SimResult,
        GridResult,
        DseResult,
        StatsResult,
        HealthResult,
        ApiError,
    )
}

# Types whose pre-v4 payloads may carry the removed ``backend`` field.
_BACKEND_TYPES = frozenset({"SimRequest", "GridRequest", "DseRequest", "SimResult"})

# Fields revived tuple-wise on decode (annotation says tuple).
_TUPLE_FIELDS: dict[str, set[str]] = {
    name: {
        f.name
        for f in fields(cls)
        if str(f.type).startswith("tuple")
    }
    for name, cls in WIRE_TYPES.items()
}
# dict-valued fields get the recursive list->tuple revive as well,
# because stats/rows payloads may carry tuple-valued entries.
_DICT_FIELDS: dict[str, set[str]] = {
    name: {f.name for f in fields(cls) if str(f.type) == "dict"}
    for name, cls in WIRE_TYPES.items()
}


def _revive(value):
    """Undo JSON's lossy sequence mapping: arrays come back as tuples."""
    if isinstance(value, list):
        return tuple(_revive(v) for v in value)
    if isinstance(value, dict):
        return {k: _revive(v) for k, v in value.items()}
    return value


def _plain(value):
    """Dataclass-free, JSON-encodable view of one field value."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _reject_constant(token: str):
    raise WireError(
        f"non-finite float {token} is not valid wire JSON "
        "(NaN/Infinity are rejected, not guessed at)"
    )


def dumps_strict(payload) -> str:
    """Compact JSON refusing NaN/Infinity with a :class:`WireError`."""
    try:
        return json.dumps(payload, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        if _contains_non_finite(payload):
            raise WireError(
                "payload carries a non-finite float (NaN/Infinity); "
                "such values do not survive interoperable JSON"
            ) from None
        raise WireError(f"unencodable payload: {exc}") from None


def loads_strict(text: str):
    """``json.loads`` that rejects NaN/Infinity literals."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except WireError:
        raise
    except ValueError as exc:
        raise WireError(f"not JSON: {exc}") from None


def _contains_non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return any(_contains_non_finite(v) for v in value)
    if isinstance(value, dict):
        return any(_contains_non_finite(v) for v in value.values())
    return False


def to_wire(obj) -> dict:
    """One JSON-ready dict (``type`` tag + every field) for ``obj``."""
    name = type(obj).__name__
    if name not in WIRE_TYPES or not is_dataclass(obj):
        raise WireError(f"not a wire type: {type(obj)!r}")
    out: dict = {"type": name}
    for f in fields(obj):
        out[f.name] = _plain(getattr(obj, f.name))
    return out


def from_wire(payload: dict):
    """Validate and instantiate the typed object ``payload`` describes."""
    if not isinstance(payload, dict):
        raise WireError(f"wire payload must be an object, got {type(payload).__name__}")
    name = payload.get("type")
    cls = WIRE_TYPES.get(name)
    if cls is None:
        known = ", ".join(sorted(WIRE_TYPES))
        raise WireError(f"unknown wire type {name!r} (known: {known})")
    schema = payload.get("schema", None)
    if (
        isinstance(schema, bool)
        or not isinstance(schema, int)
        or not API_SCHEMA_MIN <= schema <= API_SCHEMA
    ):
        raise WireError(
            f"unsupported {name} schema {schema!r} "
            f"(this build speaks schemas {API_SCHEMA_MIN}..{API_SCHEMA})"
        )
    spec = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key == "type":
            continue
        if key == "backend" and name in _BACKEND_TYPES:
            _check_removed_backend(name, schema, value)
            continue
        if key not in spec:
            raise WireError(f"unexpected field {key!r} for {name}")
        if key in _TUPLE_FIELDS[name] or key in _DICT_FIELDS[name]:
            value = _revive(value)
        kwargs[key] = value
    # Skew-tolerant normalization: an accepted older-schema payload
    # becomes a current-schema instance (new fields defaulted above).
    kwargs["schema"] = API_SCHEMA
    try:
        return cls(**kwargs)
    except TypeError as exc:  # missing required field
        raise WireError(f"bad {name} payload: {exc}") from None


def _check_removed_backend(name: str, schema: int, backend) -> None:
    """Accept, to be dropped, only a pre-v4 ``backend: "scalar"``."""
    if schema >= 4 or backend != "scalar":
        raise WireError(
            f"{name} field 'backend' ({backend!r}) was removed in API "
            "schema 4 together with the vectorized drive engine; drop the field"
        )


def encode_line(obj) -> bytes:
    """One protocol line: compact JSON + ``\\n`` (UTF-8)."""
    return (dumps_strict(to_wire(obj)) + "\n").encode()


def decode_line(line: str | bytes):
    """Parse one protocol line back into its typed object."""
    if isinstance(line, bytes):
        line = line.decode()
    return from_wire(loads_strict(line))
