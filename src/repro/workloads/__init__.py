"""Synthetic multiprogrammed workloads (substitute for SPEC traces)."""

from repro.workloads.generator import ProgramTrace, TraceChunk
from repro.workloads.mixes import (
    EIGHT_CORE_MIXES,
    QUAD_CORE_MIXES,
    SIXTEEN_CORE_MIXES,
    WorkloadMix,
    get_mix,
    mixes_for_cores,
)
from repro.workloads.profile import PROGRAM_LIBRARY, ProgramProfile, program
from repro.workloads.trace import CORE_ADDRESS_STRIDE, MultiProgramTrace

__all__ = [
    "ProgramTrace",
    "TraceChunk",
    "EIGHT_CORE_MIXES",
    "QUAD_CORE_MIXES",
    "SIXTEEN_CORE_MIXES",
    "WorkloadMix",
    "get_mix",
    "mixes_for_cores",
    "PROGRAM_LIBRARY",
    "ProgramProfile",
    "program",
    "CORE_ADDRESS_STRIDE",
    "MultiProgramTrace",
]
