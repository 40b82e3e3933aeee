"""Interval-based analytic core model (substitute for GEM5 OOO cores).

Each core retires instructions at ``base_cpi`` when not memory-stalled;
a DRAM-cache read (an LLSC miss) adds ``latency / MLP`` stall cycles,
where the memory-level-parallelism factor models the overlap an
out-of-order window extracts across outstanding misses. Writes (LLSC
writebacks) are posted and do not stall retirement.

This is the standard first-order model of multiprogrammed throughput:
ANTT differences between cache schemes are driven by the average LLSC
miss penalty each scheme produces, which is exactly the quantity our
DRAM cache models compute in detail.

:class:`~repro.cores.multiprog.MultiProgramRunner` applies the model on
local per-core lists and writes each core's totals into an
:class:`IntervalCore` when a drive ends; ``tests/cores/oracle.py`` keeps
the per-record methods as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CoreConfig

__all__ = ["IntervalCore"]


@dataclass(slots=True)
class IntervalCore:
    """One core's retirement totals over a drive."""

    core_id: int
    config: CoreConfig
    cycles: float = 0.0
    instructions: int = 0
    memory_stall_cycles: float = 0.0
    reads: int = 0
    writes: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def stall_fraction(self) -> float:
        return self.memory_stall_cycles / self.cycles if self.cycles else 0.0
