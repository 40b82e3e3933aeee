"""Reference trace merge: one record object at a time, through a heap.

This is the merge ``MultiProgramTrace`` used to iterate record by
record: each core's stream advances its own instruction clock by the
per-access gaps, and a heap keyed on (instruction time, core) yields the
globally earliest next access. ``MultiProgramTrace.materialize`` sorts
on the same key in one vectorized pass; this copy is kept as the oracle
it is checked against, not for speed.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

from repro.workloads.generator import ProgramTrace, TraceChunk
from repro.workloads.trace import CORE_ADDRESS_STRIDE, MultiProgramTrace


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One interleaved access."""

    core: int
    address: int
    is_write: bool
    icount: int  # instructions on this core since its previous access


class _CoreStream:
    """Buffered per-core iterator over chunked trace generation."""

    __slots__ = ("core", "_iter", "_chunk", "_pos", "instr_time")

    def __init__(self, core: int, trace: ProgramTrace, accesses: int) -> None:
        self.core = core
        self._iter = trace.chunks(accesses)
        self._chunk: TraceChunk | None = None
        self._pos = 0
        self.instr_time = 0

    def next_record(self) -> TraceRecord | None:
        if self._chunk is None or self._pos >= len(self._chunk):
            try:
                self._chunk = next(self._iter)
            except StopIteration:
                return None
            self._pos = 0
        i = self._pos
        self._pos += 1
        gap = int(self._chunk.icount[i])
        self.instr_time += gap
        return TraceRecord(
            core=self.core,
            address=int(self._chunk.addresses[i]),
            is_write=bool(self._chunk.is_write[i]),
            icount=gap,
        )


def merged_records(trace: MultiProgramTrace) -> Iterator[TraceRecord]:
    """``trace``'s records, ordered by per-core instruction time."""
    streams = [
        _CoreStream(
            core,
            ProgramTrace(
                profile,
                seed=trace.seed + core,
                base_address=core * CORE_ADDRESS_STRIDE,
            ),
            trace.accesses_per_core,
        )
        for core, profile in enumerate(trace.mix.programs)
    ]
    heap: list[tuple[int, int, TraceRecord]] = []
    for stream in streams:
        record = stream.next_record()
        if record is not None:
            heapq.heappush(heap, (stream.instr_time, stream.core, record))
    while heap:
        _, core, record = heapq.heappop(heap)
        yield record
        stream = streams[core]
        nxt = stream.next_record()
        if nxt is not None:
            heapq.heappush(heap, (stream.instr_time, core, nxt))
