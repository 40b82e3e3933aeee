"""Multiprogrammed trace merge tests (on the reference heap merge)."""

import pytest

from repro.workloads.generator import ProgramTrace
from repro.workloads.mixes import get_mix
from repro.workloads.trace import CORE_ADDRESS_STRIDE, MultiProgramTrace
from tests.workloads.oracle import merged_records


@pytest.fixture
def records():
    return list(
        merged_records(
            MultiProgramTrace(
                get_mix("Q1"), accesses_per_core=2000, seed=3, footprint_scale=64
            )
        )
    )


class TestMerge:
    def test_total_records(self, records):
        assert len(records) == 8000

    def test_all_cores_present(self, records):
        cores = {r.core for r in records}
        assert cores == {0, 1, 2, 3}

    def test_address_spaces_disjoint(self, records):
        for record in records:
            assert record.address // CORE_ADDRESS_STRIDE == record.core

    def test_instruction_time_ordering(self, records):
        """The merge interleaves cores while all streams are live.

        Once the memory-intensive cores exhaust their per-core access
        quota, the low-intensity stragglers legitimately run alone (the
        paper likewise lets finished cores keep executing), so only the
        first half of the merged stream must show fine interleaving.
        """
        cores_sequence = [r.core for r in records]
        first_half = cores_sequence[: len(cores_sequence) // 2]
        longest_run = 1
        run = 1
        for a, b in zip(first_half, first_half[1:]):
            run = run + 1 if a == b else 1
            longest_run = max(longest_run, run)
        assert longest_run < 200
        # all cores participate early
        assert set(first_half) == {0, 1, 2, 3}

    def test_deterministic(self):
        def collect():
            t = MultiProgramTrace(
                get_mix("Q3"), accesses_per_core=1000, seed=7, footprint_scale=64
            )
            return [(r.core, r.address, r.is_write) for r in merged_records(t)]

        assert collect() == collect()

    def test_rejects_zero_accesses(self):
        with pytest.raises(ValueError):
            MultiProgramTrace(get_mix("Q1"), accesses_per_core=0)


def test_footprint_scale_applied():
    unscaled = MultiProgramTrace(get_mix("Q1"), accesses_per_core=10, seed=1)
    scaled = MultiProgramTrace(
        get_mix("Q1"), accesses_per_core=10, seed=1, footprint_scale=16
    )
    def regions(trace):
        return ProgramTrace(trace.mix.programs[0]).num_regions

    assert regions(scaled) < regions(unscaled)
