"""Observability wired through the harness: identity, traces, profiling.

The load-bearing guarantee: enabling the tracer changes *nothing* about
simulation results — the taps are pull-based copies of counters the
simulation already keeps, taken at drive/cell boundaries.
"""

import io
import json

import pytest

from repro.harness.parallel import GridCell, drive_cell, run_grid
from repro.harness.runner import ExperimentSetup, build_cache, drive_cache
from repro.obs import Tracer, get_tracer, install

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1_200)


@pytest.fixture()
def traced():
    """Install a buffer-backed tracer; yields the buffer."""
    buffer = io.StringIO()
    previous = install(Tracer(enabled=True, stream=buffer))
    yield buffer
    install(previous)


def _run(scheme: str = "bimodal", mix: str = "Q1") -> dict:
    cache = build_cache(scheme, SETUP.system, scale=SETUP.scale)
    result = drive_cache(
        cache, SETUP.trace_records(mix), streams=SETUP.num_cores, warmup=2_000
    )
    return dict(result.stats)


def _events(buffer: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestByteIdentity:
    def test_tracing_does_not_perturb_drive_results(self, traced):
        with_trace = _run()
        buffer_len = len(traced.getvalue())
        assert buffer_len > 0, "tracer should have captured events"
        install(Tracer(enabled=False))
        without_trace = _run()
        assert with_trace == without_trace

    def test_tracing_does_not_perturb_grid_results(self, traced):
        cells = [
            GridCell(scheme=scheme, mix="Q1", setup=SETUP)
            for scheme in ("alloy", "bimodal")
        ]
        with_trace = run_grid(drive_cell, cells, jobs=1)
        install(Tracer(enabled=False))
        without_trace = run_grid(drive_cell, cells, jobs=1)
        assert with_trace == without_trace

    def test_disabled_tracer_emits_no_events_from_drive(self):
        tracer = get_tracer()
        before = tracer.events_emitted
        _run(scheme="alloy")
        assert tracer.events_emitted == before


class TestDriveTrace:
    def test_drive_emits_throughput_point(self, traced):
        _run(scheme="alloy")
        drives = [e for e in _events(traced) if e["name"] == "drive"]
        assert len(drives) == 1
        event = drives[0]
        assert event["scheme"] == "alloy"
        assert event["records"] == 4_800
        assert event["records_per_sec"] > 0
        assert 0.0 <= event["hit_rate"] <= 1.0

    def test_run_scheme_on_mix_emits_cell_span_with_sections(self, traced):
        from repro.harness.runner import run_scheme_on_mix

        run_scheme_on_mix("alloy", "Q1", setup=SETUP)
        events = _events(traced)
        ends = [e for e in events if e["ev"] == "end" and e["name"] == "cell"]
        assert len(ends) == 1
        end = ends[0]
        assert end["scheme"] == "alloy" and end["mix"] == "Q1"
        for section in ("build_s", "trace_s", "drive_s"):
            assert end[section] >= 0
        assert end["records"] == 4_800


class TestGridTrace:
    def test_grid_emits_span_and_per_cell_points(self, traced, capsys):
        cells = [
            GridCell(scheme="alloy", mix=mix, setup=SETUP) for mix in ("Q1", "Q2")
        ]
        results = run_grid(drive_cell, cells, jobs=1)
        assert len(results) == 2
        events = _events(traced)
        grid_ends = [e for e in events if e["ev"] == "end" and e["name"] == "grid"]
        assert len(grid_ends) == 1 and grid_ends[0]["cells"] == 2
        cell_points = [e for e in events if e["name"] == "grid.cell"]
        assert [e["index"] for e in cell_points] == [0, 1]
        assert all(e["wall_s"] > 0 for e in cell_points)
        assert {e["mix"] for e in cell_points} == {"Q1", "Q2"}
        progress = capsys.readouterr().err
        assert "cell 1/2" in progress and "cell 2/2" in progress

    def test_grid_parallel_matches_serial_under_tracing(self, traced):
        cells = [
            GridCell(scheme="alloy", mix="Q1", setup=SETUP),
            GridCell(scheme="bimodal", mix="Q1", setup=SETUP),
        ]
        serial = run_grid(drive_cell, cells, jobs=1)
        fanned = run_grid(drive_cell, cells, jobs=2)
        assert fanned == serial


class TestProfileHooks:
    def test_profile_dir_enables_per_cell_dumps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path))
        cells = [GridCell(scheme="alloy", mix="Q1", setup=SETUP)]
        results = run_grid(drive_cell, cells, jobs=1)
        assert results and results[0]["accesses"]
        dumps = list(tmp_path.glob("cell_*.prof"))
        assert len(dumps) == 1

    def test_profile_call_returns_result(self, tmp_path):
        from repro.obs import profile_call

        value = profile_call(lambda x: x + 1, 41, label="t", out_dir=tmp_path)
        assert value == 42
        assert (tmp_path / "t.prof").exists()


class TestStatsProtocol:
    def test_drive_result_to_dict_is_flat(self):
        from repro.harness.export import flatten_stats
        from repro.harness.runner import run_scheme_on_mix

        result = run_scheme_on_mix("alloy", "Q1", setup=SETUP)
        flat = flatten_stats(result)
        assert flat["records"] == result.accesses
        assert flat["accesses"] == result.stats["accesses"]
        assert flat["hit_rate"] == result.stats["hit_rate"]

    def test_energy_breakdown_to_dict(self):
        from repro.energy.model import EnergyModel

        cache = build_cache("alloy", SETUP.system, scale=SETUP.scale)
        drive_cache(cache, SETUP.trace_records("Q1"), streams=4)
        breakdown = EnergyModel().measure(cache, cache.offchip)
        flat = breakdown.to_dict()
        assert flat["total_nj"] == breakdown.total
        assert flat["offchip_total_nj"] == breakdown.offchip_total

    def test_flatten_stats_rejects_non_mappings(self):
        from repro.harness.export import flatten_stats

        with pytest.raises(TypeError):
            flatten_stats(42)
