"""Multiprogrammed trace assembly.

Per-core :class:`~repro.workloads.generator.ProgramTrace` streams are
merged into one interleaved stream ordered by *instruction time*: each
core advances its own instruction counter by the per-access gaps, and the
merged stream emits the globally earliest next access. This reproduces
how a multiprogrammed workload presents interleaved demand to a shared
DRAM cache without needing the timing model (which consumes the merged
stream downstream and applies real cycle times).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.generator import ProgramTrace, TraceChunk
from repro.workloads.mixes import WorkloadMix

__all__ = ["MultiProgramTrace", "CORE_ADDRESS_STRIDE"]

# Each core owns a disjoint 64 GB slice of the physical address space.
CORE_ADDRESS_STRIDE = 1 << 36


class MultiProgramTrace:
    """Instruction-time-ordered merge of a mix's per-core streams."""

    __slots__ = ("mix", "accesses_per_core", "seed")

    def __init__(
        self,
        mix: WorkloadMix,
        *,
        accesses_per_core: int,
        seed: int = 1,
        footprint_scale: float = 1.0,
        intensity_scale: float = 1.0,
    ) -> None:
        if accesses_per_core < 1:
            raise ValueError("accesses_per_core must be >= 1")
        scaled = mix.scaled(footprint_scale) if footprint_scale != 1.0 else mix
        self.mix = scaled.with_intensity_scale(intensity_scale)
        self.accesses_per_core = accesses_per_core
        self.seed = seed

    def materialize(self) -> TraceChunk:
        """The full merged stream as one :class:`TraceChunk`.

        Per-core streams are generated in bulk and merged with one stable
        lexsort on (instruction time, core). Because each core's
        instruction clock is strictly increasing, the global sort equals
        a record-at-a-time k-way heap merge on the same key, record for
        record (``tests/workloads/oracle.py`` keeps that merge as the
        reference). Each call builds fresh :class:`ProgramTrace`
        instances from the stored (mix, seed), so repeated calls return
        the same stream.
        """
        times_parts: list[np.ndarray] = []
        cores_parts: list[np.ndarray] = []
        chunks: list[TraceChunk] = []
        for core, profile in enumerate(self.mix.programs):
            trace = ProgramTrace(
                profile,
                seed=self.seed + core,
                base_address=core * CORE_ADDRESS_STRIDE,
            )
            parts = list(trace.chunks(self.accesses_per_core))
            chunk = TraceChunk(
                addresses=np.concatenate([p.addresses for p in parts]),
                is_write=np.concatenate([p.is_write for p in parts]),
                icount=np.concatenate([p.icount for p in parts]),
            )
            # Instruction time *through* each record: a record's own gap
            # counts toward its key.
            times_parts.append(np.cumsum(chunk.icount, dtype=np.int64))
            cores_parts.append(np.full(len(chunk), core, dtype=np.int32))
            chunks.append(chunk)
        times = np.concatenate(times_parts)
        cores = np.concatenate(cores_parts)
        # lexsort is stable and sorts by the last key first: primary
        # instruction time, ties broken by core index — the heap's order.
        order = np.lexsort((cores, times))
        return TraceChunk(
            addresses=np.concatenate([c.addresses for c in chunks])[order],
            is_write=np.concatenate([c.is_write for c in chunks])[order],
            icount=np.concatenate([c.icount for c in chunks])[order],
        )

    @property
    def total_accesses(self) -> int:
        return self.accesses_per_core * self.mix.num_cores
