"""Core timing model, multiprogrammed runner and system metrics."""

from repro.cores.interval import IntervalCore
from repro.cores.metrics import antt, improvement_percent, weighted_speedup
from repro.cores.multiprog import MultiProgramRunner, RunResult

__all__ = [
    "IntervalCore",
    "antt",
    "improvement_percent",
    "weighted_speedup",
    "MultiProgramRunner",
    "RunResult",
]
