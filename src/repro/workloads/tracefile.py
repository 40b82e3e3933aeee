"""Persist and replay generated workload traces.

Generated traces are deterministic, but regenerating a long mix costs
real time (the LLSC filter runs per record). For repeated studies over
one workload, record the merged stream once and replay it:

    from repro.workloads.tracefile import save_trace, load_trace, replay

    save_trace(setup.trace("Q7"), "q7.npz")
    chunk = replay(load_trace("q7.npz"))
    drive_cache(cache, chunk, streams=4)

The format is a compressed ``.npz`` with parallel arrays plus a JSON
metadata blob (mix name, seeds, scales, record count) so files are
self-describing and verifiable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.workloads.generator import TraceChunk
from repro.workloads.trace import MultiProgramTrace

__all__ = ["SavedTrace", "save_trace", "load_trace", "replay"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SavedTrace:
    """An in-memory recorded trace."""

    cores: np.ndarray  # uint8
    addresses: np.ndarray  # uint64
    is_write: np.ndarray  # bool
    icount: np.ndarray  # uint32
    metadata: dict

    def __len__(self) -> int:
        return len(self.addresses)


def save_trace(
    trace: MultiProgramTrace,
    path: str | Path,
    *,
    limit: int | None = None,
) -> Path:
    """Materialize a merged multiprogram trace to ``path`` (.npz)."""
    cores: list[int] = []
    addresses: list[int] = []
    writes: list[bool] = []
    icounts: list[int] = []
    for record in trace:
        cores.append(record.core)
        addresses.append(record.address)
        writes.append(record.is_write)
        icounts.append(record.icount)
        if limit is not None and len(addresses) >= limit:
            break
    metadata = {
        "format_version": _FORMAT_VERSION,
        "mix": trace.mix.name,
        "num_cores": trace.mix.num_cores,
        "accesses_per_core": trace.accesses_per_core,
        "records": len(addresses),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        cores=np.asarray(cores, dtype=np.uint8),
        addresses=np.asarray(addresses, dtype=np.uint64),
        is_write=np.asarray(writes, dtype=bool),
        icount=np.asarray(icounts, dtype=np.uint32),
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
    )
    return path


def load_trace(path: str | Path) -> SavedTrace:
    """Load a trace recorded with :func:`save_trace`."""
    with np.load(Path(path)) as data:
        metadata = json.loads(bytes(data["metadata"].tobytes()).decode("utf-8"))
        if metadata.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format {metadata.get('format_version')!r}"
            )
        saved = SavedTrace(
            cores=data["cores"].copy(),
            addresses=data["addresses"].copy(),
            is_write=data["is_write"].copy(),
            icount=data["icount"].copy(),
            metadata=metadata,
        )
    if len(saved.addresses) != saved.metadata["records"]:
        raise ValueError("trace file is corrupt: record count mismatch")
    return saved


def replay(saved: SavedTrace) -> TraceChunk:
    """The saved records as one :class:`TraceChunk` for ``drive_cache()``.

    Iterating the chunk yields the ``(address, is_write, icount)``
    tuples in recorded order.
    """
    return TraceChunk(saved.addresses, saved.is_write, saved.icount)
