"""Materialized-trace memoization (in-process LRU + on-disk ``.npz``).

Every experiment cell re-drives a merged LLSC-miss stream that is fully
determined by ``(mix, accesses_per_core, seed, footprint_scale,
intensity_scale)``; ANTT and full-system runs read the same entry split
back into per-program streams (:func:`program_streams`). A paper-figure
grid revisits the same handful of streams dozens of times (one per
scheme/config), and whole-suite re-runs revisit all of them — so the
generated record arrays are memoized at two levels:

* an in-process LRU (entry-count bounded) serving repeat cells inside
  one run, and
* an optional on-disk ``.npz`` cache (size-capped, atomic writes)
  serving re-runs and sibling worker processes.

Environment knobs
-----------------
``REPRO_TRACE_CACHE``      ``0``/``off`` disables the disk layer
                           (the in-process LRU stays on).
``REPRO_TRACE_CACHE_DIR``  cache directory
                           (default ``~/.cache/repro-traces``).
``REPRO_TRACE_CACHE_MB``   disk size cap in MB (default 256); the
                           oldest files are pruned past the cap.

Invalidation: keys embed ``TRACE_FORMAT_VERSION`` plus a fingerprint of
the fully-scaled mix (every profile field), so generator-model changes
must bump the version, while workload/parameter changes re-key
automatically.

Self-healing: a corrupt or truncated ``.npz`` (torn write from a killed
process, disk error, foreign file) never surfaces to the caller — the
file is quarantined as ``<name>.npz.corrupt``, the
``trace_cache.corrupt_evictions`` metric increments, and the trace is
regenerated transparently. Disk pruning tolerates sibling workers
racing it: files already pruned by another process are skipped, not
raised.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import OrderedDict

import numpy as np

from repro.workloads.generator import TraceChunk
from repro.workloads.mixes import WorkloadMix, get_mix
from repro.workloads.trace import CORE_ADDRESS_STRIDE, MultiProgramTrace

__all__ = [
    "TRACE_FORMAT_VERSION",
    "trace_key",
    "materialized_trace",
    "materialized_columns",
    "program_streams",
    "clear_memory_cache",
    "cache_stats",
    "disk_cache_dir",
    "disk_cache_enabled",
]

# Bump when repro.workloads.generator / trace merging changes the record
# stream for identical parameters (stale .npz entries re-key away).
TRACE_FORMAT_VERSION = 1

_MEMORY_ENTRIES = 8  # merged streams are O(MB); keep a small working set
_memory: "OrderedDict[str, tuple]" = OrderedDict()
_stats = {
    "memory_hits": 0,
    "disk_hits": 0,
    "misses": 0,
    "corrupt_evictions": 0,
}


def disk_cache_enabled() -> bool:
    return os.environ.get("REPRO_TRACE_CACHE", "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def disk_cache_dir() -> str:
    return os.environ.get(
        "REPRO_TRACE_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-traces"),
    )


def _disk_cap_bytes() -> int:
    try:
        mb = float(os.environ.get("REPRO_TRACE_CACHE_MB", "256"))
    except ValueError:
        mb = 256.0
    return int(mb * (1 << 20))


def _mix_fingerprint(mix: WorkloadMix) -> str:
    """Digest of the fully-scaled mix: every profile field participates."""
    return hashlib.sha256(repr(mix).encode()).hexdigest()[:20]


def trace_key(
    mix: WorkloadMix | str,
    *,
    accesses_per_core: int,
    seed: int,
    footprint_scale: float = 1.0,
    intensity_scale: float = 1.0,
) -> str:
    """Stable cache key (also the on-disk file stem)."""
    if isinstance(mix, str):
        mix = get_mix(mix)
    scaled = mix.scaled(footprint_scale) if footprint_scale != 1.0 else mix
    scaled = scaled.with_intensity_scale(intensity_scale)
    return (
        f"v{TRACE_FORMAT_VERSION}-{mix.name}-c{mix.num_cores}"
        f"-a{accesses_per_core}-s{seed}"
        f"-f{footprint_scale:g}-i{intensity_scale:g}"
        f"-{_mix_fingerprint(scaled)}"
    )


def _freeze(arrays: tuple) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _memory_put(key: str, arrays: tuple) -> None:
    _memory[key] = arrays
    _memory.move_to_end(key)
    while len(_memory) > _MEMORY_ENTRIES:
        _memory.popitem(last=False)


def _disk_load(path: str) -> tuple | None:
    try:
        with np.load(path) as data:
            return _freeze(
                (data["addresses"], data["is_write"], data["icount"])
            )
    except FileNotFoundError:
        return None  # plain miss
    except Exception:
        # Truncated/corrupt entry (torn write, BadZipFile, missing or
        # malformed member, disk error): quarantine and regenerate —
        # the cache must never take a run down.
        _quarantine(path)
        return None


def _quarantine(path: str) -> None:
    """Move a corrupt entry aside as ``<path>.corrupt`` and count it."""
    try:
        os.replace(path, f"{path}.corrupt")
    except OSError:
        pass  # already quarantined/pruned by a sibling, or gone
    _stats["corrupt_evictions"] += 1
    from repro.obs import get_metrics, get_tracer

    get_metrics().add("trace_cache.corrupt_evictions")
    get_tracer().point("trace_cache.corrupt", path=path)


def _disk_store(directory: str, key: str, arrays: tuple) -> None:
    """Atomic write (tmp + rename) so parallel workers never read torn files."""
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    addresses=arrays[0],
                    is_write=arrays[1],
                    icount=arrays[2],
                )
            os.replace(tmp, os.path.join(directory, f"{key}.npz"))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        _prune_disk(directory)
    except OSError:
        pass  # read-only/full filesystem: cache stays memory-only


def _prune_disk(directory: str) -> None:
    """Drop oldest entries until the directory fits the size cap.

    Sibling workers prune the same directory concurrently; a file
    another process already removed is simply skipped (per-file
    ``FileNotFoundError`` must not abort the sweep). Quarantined
    ``.corrupt`` files count against the cap and age out the same way.
    """
    cap = _disk_cap_bytes()
    try:
        entries = []
        total = 0
        with os.scandir(directory) as it:
            for entry in it:
                if not (
                    entry.name.endswith(".npz")
                    or entry.name.endswith(".corrupt")
                ):
                    continue
                try:
                    st = entry.stat()
                except FileNotFoundError:
                    continue  # pruned by a sibling between scan and stat
                entries.append((st.st_mtime, st.st_size, entry.path))
                total += st.st_size
        if total <= cap:
            return
        for _, size, path in sorted(entries):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass  # a sibling got there first; its bytes are gone too
            total -= size
            if total <= cap:
                return
    except OSError:
        pass


def materialized_trace(
    mix: WorkloadMix | str,
    *,
    accesses_per_core: int,
    seed: int = 1,
    footprint_scale: float = 1.0,
    intensity_scale: float = 1.0,
):
    """The merged record arrays for one trace configuration, memoized.

    Returns a :class:`~repro.workloads.generator.TraceChunk` whose arrays
    are byte-identical to ``MultiProgramTrace(...).materialize()`` for the
    same parameters. The arrays are shared across callers and marked
    read-only — copy before mutating.
    """
    if isinstance(mix, str):
        mix = get_mix(mix)
    key = trace_key(
        mix,
        accesses_per_core=accesses_per_core,
        seed=seed,
        footprint_scale=footprint_scale,
        intensity_scale=intensity_scale,
    )
    arrays = _memory.get(key)
    if arrays is not None:
        _memory.move_to_end(key)
        _stats["memory_hits"] += 1
        return TraceChunk(*arrays)

    directory = disk_cache_dir()
    use_disk = disk_cache_enabled()
    if use_disk:
        arrays = _disk_load(os.path.join(directory, f"{key}.npz"))
        if arrays is not None:
            _stats["disk_hits"] += 1
            _memory_put(key, arrays)
            return TraceChunk(*arrays)

    _stats["misses"] += 1
    merged = MultiProgramTrace(
        mix,
        accesses_per_core=accesses_per_core,
        seed=seed,
        footprint_scale=footprint_scale,
        intensity_scale=intensity_scale,
    ).materialize()
    arrays = _freeze((merged.addresses, merged.is_write, merged.icount))
    _memory_put(key, arrays)
    if use_disk:
        _disk_store(directory, key, arrays)
    return TraceChunk(*arrays)


def materialized_columns(
    mix: WorkloadMix | str,
    *,
    accesses_per_core: int,
    seed: int = 1,
    footprint_scale: float = 1.0,
    intensity_scale: float = 1.0,
) -> tuple:
    """SoA column views of a materialized trace, without copying.

    Returns the cached ``(addresses, is_write, icount)`` arrays directly
    (read-only, shared across callers) — the form the :mod:`repro.mrc`
    ghost pass walks. Same memoization as :func:`materialized_trace`.
    """
    return materialized_trace(
        mix,
        accesses_per_core=accesses_per_core,
        seed=seed,
        footprint_scale=footprint_scale,
        intensity_scale=intensity_scale,
    ).columns()


def program_streams(
    mix: WorkloadMix | str,
    *,
    accesses_per_core: int,
    seed: int = 1,
    footprint_scale: float = 1.0,
    intensity_scale: float = 1.0,
) -> list[TraceChunk]:
    """Each program's own record stream, split out of the cached merge.

    Returns one :class:`~repro.workloads.generator.TraceChunk` per
    program of the mix, record for record what program ``i``'s
    ``ProgramTrace(seed=seed + i, base_address=i * CORE_ADDRESS_STRIDE)``
    generates. The split is exact: program ``i`` owns the addresses
    ``[i * CORE_ADDRESS_STRIDE, (i + 1) * CORE_ADDRESS_STRIDE)``, and the
    merge is a stable sort on (instruction time, core), so selecting the
    records with ``address // CORE_ADDRESS_STRIDE == i`` keeps program
    ``i``'s records in their original order. Same memoization as
    :func:`materialized_trace`: the ANTT and full-system drivers share
    its entries with the trace-driven experiments.
    """
    if isinstance(mix, str):
        mix = get_mix(mix)
    addresses, is_write, icount = materialized_trace(
        mix,
        accesses_per_core=accesses_per_core,
        seed=seed,
        footprint_scale=footprint_scale,
        intensity_scale=intensity_scale,
    ).columns()
    owner = addresses // np.uint64(CORE_ADDRESS_STRIDE)
    streams = []
    for program in range(mix.num_cores):
        mine = owner == program
        stream = TraceChunk(addresses[mine], is_write[mine], icount[mine])
        if len(stream) != accesses_per_core:
            raise ValueError(
                f"program {program} of mix {mix.name!r} has {len(stream)} "
                f"records in the merged trace, expected {accesses_per_core}"
            )
        streams.append(stream)
    return streams


def clear_memory_cache() -> None:
    """Drop the in-process layer (tests; the disk layer is untouched)."""
    _memory.clear()


def cache_stats() -> dict[str, int]:
    """Hit/miss counters for this process (testing/diagnostics)."""
    return dict(_stats)
