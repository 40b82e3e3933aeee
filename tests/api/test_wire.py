"""Wire codec: property-based round trips and strict decode failures.

Every api dataclass must survive ``to_wire`` -> JSON text -> ``from_wire``
bit-identically (tuples revived, numbers exact), and the decoder must
reject anything it does not fully understand — unknown types, version
skew, unexpected or missing fields."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    WIRE_TYPES,
    WireError,
    decode_line,
    dumps_strict,
    encode_line,
    from_wire,
    loads_strict,
    to_wire,
)

# JSON-representable scalars whose round trip is exact.
_scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=16),
    st.booleans(),
    st.none(),
)
# Stats-style payload dicts; sequence values follow the repo-wide
# tuple convention (the codec revives JSON arrays back into tuples).
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3).map(tuple),
)
_dicts = st.dictionaries(st.text(max_size=8), _values, max_size=4)
_names = st.text(min_size=1, max_size=12)

sim_requests = st.builds(
    SimRequest,
    scheme=_names,
    mix=_names,
    cores=st.integers(0, 64),
    accesses_per_core=st.integers(-10, 10**6),
    seed=st.integers(-(2**31), 2**31),
    scale=st.integers(0, 64),
    window=st.integers(0, 256),
    warmup_fraction=st.floats(0, 1, allow_nan=False),
    deadline_s=st.floats(0, 10**6, allow_nan=False),
)
grid_requests = st.builds(
    GridRequest,
    experiment=_names,
    mixes=st.lists(_names, max_size=4).map(tuple),
    cores=st.integers(0, 64),
    accesses_per_core=st.integers(-10, 10**6),
    seed=st.integers(-(2**31), 2**31),
    scale=st.integers(0, 64),
    jobs=st.integers(0, 64),
    deadline_s=st.floats(0, 10**6, allow_nan=False),
)
progress_events = st.builds(
    ProgressEvent,
    stage=_names,
    request_id=st.text(max_size=12),
    completed=st.integers(0, 10**6),
    total=st.integers(0, 10**6),
    detail=st.text(max_size=32),
)
sim_results = st.builds(
    SimResult,
    scheme=_names,
    mix=_names,
    cores=st.integers(0, 64),
    seed=st.integers(-(2**31), 2**31),
    records=st.integers(0, 10**9),
    end_time=st.integers(0, 10**12),
    stats=_dicts,
    wall_s=st.floats(0, 10**6, allow_nan=False),
)
grid_results = st.builds(
    GridResult,
    experiment=_names,
    status=st.sampled_from(["ok", "partial"]),
    rows=st.lists(_dicts, max_size=3).map(tuple),
    failures=st.lists(_dicts, max_size=2).map(tuple),
    resumed_cells=st.integers(0, 10**6),
    wall_s=st.floats(0, 10**6, allow_nan=False),
)
dse_requests = st.builds(
    DseRequest,
    mixes=st.lists(_names, max_size=4).map(tuple),
    cores=st.integers(0, 64),
    accesses_per_core=st.integers(-10, 10**6),
    seed=st.integers(-(2**31), 2**31),
    scale=st.integers(0, 64),
    jobs=st.integers(0, 64),
    sample_rate=st.floats(0, 1, allow_nan=False),
    max_frontier=st.integers(0, 64),
    deadline_s=st.floats(0, 10**6, allow_nan=False),
)
dse_results = st.builds(
    DseResult,
    status=st.sampled_from(["ok", "partial"]),
    rows=st.lists(_dicts, max_size=3).map(tuple),
    winner=_dicts,
    stats=_dicts,
    failures=st.lists(_dicts, max_size=2).map(tuple),
    resumed_cells=st.integers(0, 10**6),
    wall_s=st.floats(0, 10**6, allow_nan=False),
)
stats_results = st.builds(
    StatsResult, metrics=_dicts, trace_cache=_dicts, server=_dicts
)
api_errors = st.builds(
    ApiError, code=_names, message=st.text(max_size=64)
)
health_results = st.builds(
    HealthResult,
    state=st.sampled_from(["starting", "serving", "draining"]),
    queued=st.integers(0, 10**6),
    inflight=st.integers(0, 10**6),
    connections=st.integers(0, 10**6),
    detail=st.text(max_size=32),
)

any_wire_object = st.one_of(
    sim_requests,
    grid_requests,
    dse_requests,
    progress_events,
    sim_results,
    grid_results,
    dse_results,
    stats_results,
    api_errors,
    health_results,
)


@settings(max_examples=200, deadline=None)
@given(any_wire_object)
def test_every_type_round_trips_bit_identically(obj):
    assert from_wire(json.loads(json.dumps(to_wire(obj)))) == obj


@settings(max_examples=100, deadline=None)
@given(any_wire_object)
def test_line_framing_round_trips(obj):
    line = encode_line(obj)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]  # one object, one line
    assert decode_line(line) == obj


@settings(max_examples=50, deadline=None)
@given(grid_results)
def test_tuples_survive_decode(result):
    revived = decode_line(encode_line(result))
    assert isinstance(revived.rows, tuple)
    assert isinstance(revived.failures, tuple)
    for row in revived.rows:
        for value in row.values():
            assert not isinstance(value, list)


class TestStrictDecode:
    def test_unknown_type_rejected(self):
        with pytest.raises(WireError, match="unknown wire type"):
            from_wire({"type": "EvilRequest", "schema": API_SCHEMA})

    @pytest.mark.parametrize("schema", [0, API_SCHEMA + 1, "1", None])
    def test_other_schema_versions_rejected(self, schema):
        payload = {"type": "ApiError", "code": "x", "message": "y"}
        if schema is not None:
            payload["schema"] = schema
        with pytest.raises(WireError, match="schema"):
            from_wire(payload)

    def test_unexpected_field_rejected(self):
        payload = to_wire(ApiError(code="x", message="y"))
        payload["surprise"] = 1
        with pytest.raises(WireError, match="unexpected field"):
            from_wire(payload)

    def test_missing_required_field_rejected(self):
        payload = to_wire(ApiError(code="x", message="y"))
        del payload["message"]
        with pytest.raises(WireError, match="bad ApiError payload"):
            from_wire(payload)

    def test_non_object_rejected(self):
        with pytest.raises(WireError):
            from_wire(["SimRequest"])

    def test_non_json_line_rejected(self):
        with pytest.raises(WireError, match="not JSON"):
            decode_line(b"{nope\n")

    def test_every_public_type_is_registered(self):
        assert set(WIRE_TYPES) == {
            "SimRequest",
            "GridRequest",
            "DseRequest",
            "ProgressEvent",
            "SimResult",
            "GridResult",
            "DseResult",
            "StatsResult",
            "ApiError",
            "HealthResult",
        }

    def test_schema_field_travels_on_the_wire(self):
        payload = to_wire(ApiError(code="x", message="y"))
        assert payload["schema"] == API_SCHEMA


class TestSchemaSkew:
    """Old-schema payloads (>= API_SCHEMA_MIN) still decode."""

    def test_v1_sim_request_decodes_with_defaults(self):
        payload = to_wire(SimRequest(scheme="alloy", mix="Q1"))
        del payload["deadline_s"]  # field did not exist in v1
        payload["backend"] = "scalar"  # v1-v3 requests carried it
        payload["schema"] = API_SCHEMA_MIN
        decoded = from_wire(payload)
        assert decoded.deadline_s == 0.0
        assert decoded.schema == API_SCHEMA  # normalized, not preserved

    def test_v1_grid_request_matches_v2_equivalent(self):
        # Content-addressing relies on this: an old client's request
        # and a new client's defaulted request are the same object.
        payload = to_wire(GridRequest(experiment="fig10"))
        del payload["deadline_s"]
        payload["backend"] = "scalar"
        payload["schema"] = API_SCHEMA_MIN
        assert from_wire(payload) == GridRequest(experiment="fig10")

    def test_below_min_schema_rejected(self):
        payload = to_wire(ApiError(code="x", message="y"))
        payload["schema"] = API_SCHEMA_MIN - 1
        with pytest.raises(WireError, match="schema"):
            from_wire(payload)


# One instance of every type whose v1-v3 payloads carried ``backend``.
_BACKEND_CARRIERS = {
    "SimRequest": SimRequest(scheme="alloy", mix="Q1"),
    "GridRequest": GridRequest(experiment="fig10"),
    "DseRequest": DseRequest(mixes=("Q1",)),
    "SimResult": SimResult(
        scheme="alloy", mix="Q1", cores=4, seed=1, records=8, end_time=9, stats={}
    ),
}


class TestRemovedBackendField:
    """Schema 4 dropped ``backend``; old scalar payloads still decode."""

    @pytest.mark.parametrize("schema", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(_BACKEND_CARRIERS))
    def test_pre_v4_scalar_backend_is_dropped(self, name, schema):
        obj = _BACKEND_CARRIERS[name]
        payload = {**to_wire(obj), "backend": "scalar", "schema": schema}
        assert from_wire(payload) == obj

    @pytest.mark.parametrize(
        "schema, backend",
        [(3, "vectorized"), (1, "turbo"), (API_SCHEMA, "scalar"), (API_SCHEMA, "vectorized")],
    )
    @pytest.mark.parametrize("name", sorted(_BACKEND_CARRIERS))
    def test_other_backend_or_v4_field_is_refused(self, name, schema, backend):
        payload = {
            **to_wire(_BACKEND_CARRIERS[name]), "backend": backend, "schema": schema
        }
        with pytest.raises(WireError, match="removed in API schema 4"):
            from_wire(payload)

    def test_backend_on_other_types_is_an_unexpected_field(self):
        payload = {**to_wire(ApiError(code="x", message="y")), "backend": "scalar"}
        with pytest.raises(WireError, match="unexpected field 'backend'"):
            from_wire(payload)


class TestNonFiniteFloats:
    """NaN/Infinity never cross the wire: rejected with a typed error.

    Standard JSON has no representation for them; rather than emit
    frames only Python's parser reads back, the codec fails loudly in
    both directions.
    """

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_encode_rejects_non_finite_stats(self, value):
        result = StatsResult(metrics={"m": value}, trace_cache={}, server={})
        with pytest.raises(WireError, match="non-finite"):
            encode_line(result)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_encode_rejects_non_finite_nested_in_rows(self, value):
        result = GridResult(
            experiment="fig10", status="ok", rows=({"ipc": (1.0, value)},)
        )
        with pytest.raises(WireError, match="non-finite"):
            encode_line(result)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_decode_rejects_non_finite_literals(self, token):
        line = (
            '{"type":"ApiError","code":"x","message":"y",'
            f'"schema":{API_SCHEMA},"extra":{token}}}'
        )
        with pytest.raises(WireError, match="non-finite"):
            decode_line(line.encode())

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.sampled_from(["nan", "inf", "-inf"]),
    )
    def test_finite_pass_non_finite_fail(self, finite, bad):
        assert loads_strict(dumps_strict(finite)) == finite
        with pytest.raises(WireError):
            dumps_strict(float(bad))
