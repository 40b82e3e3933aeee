"""Shared fixtures for the per-figure benchmark harness.

Each benchmark regenerates one of the paper's tables/figures and prints
the rows (bypassing pytest's capture) so that
``pytest benchmarks/ --benchmark-only`` leaves a readable record of the
reproduced series alongside the timing numbers.
"""

import pytest

from repro.harness.reporting import format_table
from repro.harness.runner import ExperimentSetup

# Benchmark grids fan out over the parallel experiment engine: every
# experiment call passes jobs=0 (one worker per CPU). Results are
# identical to a serial run — cells are independent simulations.


@pytest.fixture
def report(capsys):
    """Print experiment rows uncaptured, as the paper's rows/series."""

    def _report(rows, *, title=None, columns=None):
        with capsys.disabled():
            print()
            print(format_table(rows, title=title, columns=columns))
            print()

    return _report


@pytest.fixture
def quad_setup() -> ExperimentSetup:
    """Scaled 4-core Table IV configuration for benchmark runs."""
    return ExperimentSetup(num_cores=4, accesses_per_core=20_000, seed=1)


@pytest.fixture
def eight_setup() -> ExperimentSetup:
    """Scaled 8-core configuration (E-mix experiments).

    Uses scale 32 (256 MB -> 8 MB) so the footprint:capacity ratio — and
    therefore eviction/waste behaviour — matches the quad-core runs at
    the benchmark's access volumes.
    """
    return ExperimentSetup(
        num_cores=8,
        scale=32,
        accesses_per_core=12_000,
        seed=1,
    )


@pytest.fixture
def antt_setup() -> ExperimentSetup:
    """Smaller per-core quota: ANTT needs n+1 runs per scheme."""
    return ExperimentSetup(num_cores=4, accesses_per_core=8_000, seed=1)


# Representative mix subsets keep each benchmark's wall time modest while
# covering the dense / sparse / mixed spectrum. Full sweeps are available
# by passing mix_names=None to the experiment functions.
QUAD_MIXES = ["Q2", "Q5", "Q7", "Q12", "Q17", "Q20", "Q23"]
EIGHT_MIXES = ["E1", "E5", "E8", "E12", "E15"]
