"""Trace materialization cache: identity, memoization, disk layer and the
per-program split the ANTT and full-system drivers read."""

import numpy as np
import pytest

from repro.cores.multiprog import iter_records
from repro.harness.parallel import AnttCell, antt_cell
from repro.harness.runner import ExperimentSetup
from repro.workloads import trace_cache
from repro.workloads.generator import ProgramTrace
from repro.workloads.trace import CORE_ADDRESS_STRIDE, MultiProgramTrace
from repro.workloads.mixes import get_mix

MIX = "Q1"
ACCESSES = 800


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Each test gets an empty memory layer and a private disk directory."""
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    trace_cache.clear_memory_cache()
    yield
    trace_cache.clear_memory_cache()


def _materialize_direct():
    return MultiProgramTrace(
        get_mix(MIX), accesses_per_core=ACCESSES, seed=1
    ).materialize()


def test_materialize_matches_record_iteration():
    """The vectorized merge equals the per-record heap merge, in order."""
    trace = MultiProgramTrace(get_mix(MIX), accesses_per_core=ACCESSES, seed=1)
    merged = trace.materialize()
    records = list(trace)
    assert len(merged) == len(records)
    assert merged.addresses.tolist() == [r.address for r in records]
    assert merged.is_write.tolist() == [r.is_write for r in records]
    assert merged.icount.tolist() == [r.icount for r in records]


def test_cached_arrays_byte_identical_to_generation():
    chunk = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    direct = _materialize_direct()
    assert chunk.addresses.tobytes() == direct.addresses.tobytes()
    assert chunk.is_write.tobytes() == direct.is_write.tobytes()
    assert chunk.icount.tobytes() == direct.icount.tobytes()


def test_memory_hit_returns_identical_arrays():
    before = trace_cache.cache_stats()
    first = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    second = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    after = trace_cache.cache_stats()
    assert after["misses"] == before["misses"] + 1
    assert after["memory_hits"] == before["memory_hits"] + 1
    # Same underlying buffers — the hit shares, it does not regenerate.
    assert second.addresses is first.addresses
    assert second.addresses.tobytes() == first.addresses.tobytes()


def test_cached_arrays_are_read_only():
    chunk = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    with pytest.raises(ValueError):
        chunk.addresses[0] = 0


def test_disk_round_trip_byte_identical(tmp_path):
    first = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    trace_cache.clear_memory_cache()  # force the next lookup to the disk layer
    before = trace_cache.cache_stats()
    second = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    after = trace_cache.cache_stats()
    assert after["disk_hits"] == before["disk_hits"] + 1
    assert after["misses"] == before["misses"]
    assert second.addresses.tobytes() == first.addresses.tobytes()
    assert second.is_write.tobytes() == first.is_write.tobytes()
    assert second.icount.tobytes() == first.icount.tobytes()


def test_disk_layer_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    trace_cache.clear_memory_cache()
    before = trace_cache.cache_stats()
    trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    after = trace_cache.cache_stats()
    assert after["misses"] == before["misses"] + 1
    assert after["disk_hits"] == before["disk_hits"]


def test_key_distinguishes_every_parameter():
    base = dict(accesses_per_core=ACCESSES, seed=1)
    key = trace_cache.trace_key(MIX, **base)
    assert key != trace_cache.trace_key(MIX, accesses_per_core=ACCESSES + 1, seed=1)
    assert key != trace_cache.trace_key(MIX, accesses_per_core=ACCESSES, seed=2)
    assert key != trace_cache.trace_key(MIX, **base, footprint_scale=2.0)
    assert key != trace_cache.trace_key(MIX, **base, intensity_scale=0.5)
    assert key != trace_cache.trace_key("Q2", **base)
    # Deterministic: same parameters, same key (it is the on-disk stem).
    assert key == trace_cache.trace_key(MIX, **base)


def _entry_path():
    directory = trace_cache.disk_cache_dir()
    key = trace_cache.trace_key(MIX, accesses_per_core=ACCESSES, seed=1)
    return f"{directory}/{key}.npz"


def test_corrupt_disk_entry_regenerates(tmp_path):
    trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    path = _entry_path()
    with open(path, "wb") as fh:
        fh.write(b"not an npz")
    trace_cache.clear_memory_cache()
    before = trace_cache.cache_stats()
    chunk = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
    after = trace_cache.cache_stats()
    assert after["misses"] == before["misses"] + 1
    direct = _materialize_direct()
    assert chunk.addresses.tobytes() == direct.addresses.tobytes()


class TestSelfHealing:
    """Corrupt entries are quarantined, counted and regenerated."""

    def _corrupt_and_reload(self):
        trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
        path = _entry_path()
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04 torn npz write")
        trace_cache.clear_memory_cache()
        return path, trace_cache.materialized_trace(
            MIX, accesses_per_core=ACCESSES
        )

    def test_corrupt_entry_is_quarantined(self):
        import os

        path, _ = self._corrupt_and_reload()
        assert os.path.exists(f"{path}.corrupt")  # moved aside, not deleted
        # The regenerated entry replaced the corrupt one on disk.
        assert os.path.exists(path)

    def test_quarantine_increments_stat_and_metric(self):
        from repro.obs import get_metrics

        before_stat = trace_cache.cache_stats()["corrupt_evictions"]
        before_metric = get_metrics().counter_value(
            "trace_cache.corrupt_evictions"
        )
        self._corrupt_and_reload()
        assert (
            trace_cache.cache_stats()["corrupt_evictions"] == before_stat + 1
        )
        assert (
            get_metrics().counter_value("trace_cache.corrupt_evictions")
            == before_metric + 1
        )

    def test_regenerated_trace_is_byte_identical(self):
        _, chunk = self._corrupt_and_reload()
        direct = _materialize_direct()
        assert chunk.addresses.tobytes() == direct.addresses.tobytes()
        assert chunk.is_write.tobytes() == direct.is_write.tobytes()
        assert chunk.icount.tobytes() == direct.icount.tobytes()

    def test_truncated_entry_heals_too(self):
        import os

        trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
        path = _entry_path()
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])  # torn write from a killed proc
        trace_cache.clear_memory_cache()
        chunk = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
        assert os.path.exists(f"{path}.corrupt")
        direct = _materialize_direct()
        assert chunk.addresses.tobytes() == direct.addresses.tobytes()


class TestPruneRace:
    """Sibling workers pruning the same directory must not collide."""

    def test_missing_file_during_prune_is_skipped(self, monkeypatch):
        import os

        trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
        directory = trace_cache.disk_cache_dir()
        real_unlink = os.unlink

        def racy_unlink(path, *args, **kwargs):
            # Another worker pruned this file between scandir and unlink.
            real_unlink(path, *args, **kwargs)
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "unlink", racy_unlink)
        monkeypatch.setenv("REPRO_TRACE_CACHE_MB", "0")
        trace_cache._prune_disk(directory)  # must not raise
        assert not [
            name for name in os.listdir(directory) if name.endswith(".npz")
        ]

    def test_file_vanishing_before_stat_is_skipped(self, monkeypatch):
        import os

        trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
        directory = trace_cache.disk_cache_dir()

        real_scandir = os.scandir

        class VanishingEntry:
            def __init__(self, entry):
                self._entry = entry
                self.name = entry.name
                self.path = entry.path

            def stat(self):
                raise FileNotFoundError(self.path)

        class VanishingScan:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                return (VanishingEntry(e) for e in self._inner.__enter__())

            def __exit__(self, *exc):
                return self._inner.__exit__(*exc)

        monkeypatch.setattr(
            os, "scandir", lambda d: VanishingScan(real_scandir(d))
        )
        trace_cache._prune_disk(directory)  # must not raise

    def test_quarantined_files_age_out_with_the_cap(self, monkeypatch):
        import os

        trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
        directory = trace_cache.disk_cache_dir()
        stale = os.path.join(directory, "old.npz.corrupt")
        with open(stale, "wb") as fh:
            fh.write(b"quarantined junk")
        monkeypatch.setenv("REPRO_TRACE_CACHE_MB", "0")
        trace_cache._prune_disk(directory)
        assert not os.path.exists(stale)


class TestProgramStreams:
    """The per-program split equals regenerating each program alone."""

    FOOTPRINT_SCALE = 16.0

    def _regenerated(self, mix, n, seed, intensity_scale):
        scaled = get_mix(mix).scaled(self.FOOTPRINT_SCALE)
        scaled = scaled.with_intensity_scale(intensity_scale)
        return [
            list(
                iter_records(
                    ProgramTrace(
                        profile,
                        seed=seed + i,
                        base_address=i * CORE_ADDRESS_STRIDE,
                    ),
                    n,
                )
            )
            for i, profile in enumerate(scaled.programs)
        ]

    def _check(self, mix, n, seed, intensity_scale=1.0):
        expected = self._regenerated(mix, n, seed, intensity_scale)
        params = dict(
            accesses_per_core=n,
            seed=seed,
            footprint_scale=self.FOOTPRINT_SCALE,
            intensity_scale=intensity_scale,
        )
        trace_cache.program_streams(mix, **params)  # miss: generate, store
        before = trace_cache.cache_stats()
        from_memory = trace_cache.program_streams(mix, **params)
        trace_cache.clear_memory_cache()
        from_disk = trace_cache.program_streams(mix, **params)
        after = trace_cache.cache_stats()
        assert after["memory_hits"] == before["memory_hits"] + 1
        assert after["disk_hits"] == before["disk_hits"] + 1
        assert after["misses"] == before["misses"]
        for streams in (from_memory, from_disk):
            assert [list(stream) for stream in streams] == expected

    @pytest.mark.parametrize("intensity_scale", [1.0, 0.5])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mix", ["Q1", "Q7", "E1"])
    def test_split_matches_regeneration(self, mix, seed, intensity_scale):
        self._check(mix, 1_500, seed, intensity_scale=intensity_scale)

    def test_split_matches_regeneration_across_generator_chunks(self):
        """Above 65,536 records a program is generated in several chunks."""
        self._check("Q7", 70_000, 1)

    def test_stream_of_the_wrong_length_is_rejected(self):
        merged = trace_cache.materialized_trace(MIX, accesses_per_core=ACCESSES)
        # A stale entry that parses but lost its last record.
        np.savez(
            _entry_path(),
            addresses=merged.addresses[:-1],
            is_write=merged.is_write[:-1],
            icount=merged.icount[:-1],
        )
        trace_cache.clear_memory_cache()
        with pytest.raises(ValueError, match=f"expected {ACCESSES}"):
            trace_cache.program_streams(MIX, accesses_per_core=ACCESSES)

    def test_antt_pair_generates_its_trace_once(self):
        """Both schemes' shared and standalone runs read one cache entry,
        the entry the trace-driven experiments read too."""
        setup = ExperimentSetup(num_cores=4, accesses_per_core=ACCESSES)
        before = trace_cache.cache_stats()
        for scheme in ("alloy", "bimodal"):
            antt_cell(
                AnttCell(
                    scheme=scheme,
                    mix=MIX,
                    setup=setup,
                    warmup_fraction=0.5,
                    intensity_scale=setup.intensity_scale,
                )
            )
        after = trace_cache.cache_stats()
        assert after["misses"] == before["misses"] + 1
        # Two multiprogrammed runs plus eight standalone runs.
        assert after["memory_hits"] == before["memory_hits"] + 9
        setup.trace_records(MIX)
        assert trace_cache.cache_stats()["misses"] == after["misses"]
