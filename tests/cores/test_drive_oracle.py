"""The ANTT drive against its reference loop (``tests/cores/oracle.py``).

``MultiProgramRunner._drive`` keeps each core's interval state in local
lists; the oracle advances one core object per program through method
calls. Driven over the same programs on the same kind of cache, both
must send the cache the same requests, reset its statistics at the same
access, and end with the same core clocks, warm-up marks, per-core
totals and stats snapshot, every float compared exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cores.multiprog import MultiProgramRunner
from repro.dramcache.base import DRAMCacheAccess
from repro.harness.runner import ExperimentSetup, build_cache
from tests.cores.oracle import reference_drive

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1_500)
TOTAL = SETUP.num_cores * SETUP.accesses_per_core


class FixedLatencyCache:
    """Stub cache: every access completes a fixed latency after its arrival.

    The latency is a function of the address alone, so reads stall their
    core by many different amounts.
    """

    def __init__(self) -> None:
        self.reset_stats()

    def access(self, address, now, *, is_write=False):
        latency = 40 + (address >> 6) % 173
        self.accesses += 1
        if is_write:
            self.writes += 1
        else:
            self.read_cycles += latency
        return DRAMCacheAccess(False, now, now + latency)

    def reset_stats(self) -> None:
        self.accesses = self.writes = self.read_cycles = 0

    def stats_snapshot(self) -> dict:
        return {
            "accesses": self.accesses,
            "writes": self.writes,
            "read_cycles": self.read_cycles,
        }


class Probe:
    """Logs the requests a cache is sent and the access count at each reset."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.requests: list[tuple] = []
        self.resets: list[int] = []

    def access(self, address, now, *, is_write=False):
        self.requests.append((address, now, is_write))
        return self.cache.access(address, now, is_write=is_write)

    def reset_stats(self) -> None:
        self.resets.append(len(self.requests))
        self.cache.reset_stats()


def _runner(scheme: str, mix: str, warmup_fraction: float) -> MultiProgramRunner:
    if scheme == "stub":
        def factory():
            return Probe(FixedLatencyCache())
    else:
        def factory():
            return Probe(
                build_cache(
                    scheme,
                    SETUP.system,
                    scale=SETUP.scale,
                    adaptation_interval=max(1_000, TOTAL // 150),
                )
            )
    return MultiProgramRunner(
        SETUP.mixes()[mix],
        factory,
        accesses_per_core=SETUP.accesses_per_core,
        seed=SETUP.seed,
        footprint_scale=SETUP.footprint_scale,
        intensity_scale=SETUP.intensity_scale,
        warmup_fraction=warmup_fraction,
    )


def _observed(result) -> dict:
    probe = result.cache
    return {
        "per_core_cycles": result.per_core_cycles,
        "warmup_marks": [
            core.cycles - measured
            for core, measured in zip(result.cores, result.per_core_cycles)
        ],
        "cores": [dataclasses.astuple(core) for core in result.cores],
        "requests": probe.requests,
        "resets": probe.resets,
        "stats": probe.cache.stats_snapshot(),
    }


@pytest.mark.parametrize(
    ("scheme", "mix", "warmup_fraction"),
    [
        ("alloy", "Q7", 0.5),
        ("bimodal", "Q7", 0.5),
        ("bimodal", "Q1", 0.3),
        ("stub", "Q7", 0.5),
        ("stub", "Q1", 0.0),
    ],
)
def test_drive_matches_reference_loop(scheme, mix, warmup_fraction):
    runner = _runner(scheme, mix, warmup_fraction)
    runs = [list(range(runner.mix.num_cores))]
    runs += [[i] for i in range(runner.mix.num_cores)]
    for programs in runs:
        got = _observed(runner._drive(programs))
        want = _observed(reference_drive(runner, programs))
        assert got["requests"], "the drive sent no requests"
        if warmup_fraction:
            total = SETUP.accesses_per_core * len(programs)
            assert got["resets"] == [int(total * warmup_fraction)]
        for key in want:
            assert got[key] == want[key], (programs, key)
