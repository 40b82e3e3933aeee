"""Design-space experiment internals (Figure 1's MRC rewire).

Figure 1 moved from one SetAssociativeCache walk per block size to a
single MRC ghost pass; the golden test here pins the rewired rows
bit-for-bit against the old per-block-size reference walk. Plus the
fault-tolerance seam: a failed mix cell must drop only its own row.
"""

import pytest

import repro.harness.experiments.design_space as design_space
from repro.harness.experiments.design_space import (
    _Fig1Cell,
    _fig1_row,
    fig1_miss_rate_vs_block_size,
)
from repro.harness.parallel import complete_groups
from repro.harness.runner import ExperimentSetup
from repro.sram.cache import SetAssociativeCache

TINY = ExperimentSetup(num_cores=4, accesses_per_core=1500)
BLOCKS = (64, 256, 1024)


def _reference_row(mix: str, block_sizes, associativity: int = 8) -> dict:
    """The pre-MRC implementation: one LRU cache walk per block size."""
    capacity = TINY.system.dram_cache.capacity
    stream = TINY.trace_records(mix).addresses.tolist()
    row: dict = {"mix": mix}
    for block_size in block_sizes:
        cache = SetAssociativeCache(capacity, associativity, block_size)
        for address in stream:
            cache.access(address)
        row[f"{block_size}B"] = cache.accesses.miss_rate
    return row


class TestFig1Golden:
    def test_mrc_row_is_bit_identical_to_reference_walk(self):
        cell = _Fig1Cell(
            mix="Q2", setup=TINY, block_sizes=BLOCKS, associativity=8
        )
        assert _fig1_row(cell) == _reference_row("Q2", BLOCKS)

    def test_row_shape(self):
        cell = _Fig1Cell(
            mix="Q7", setup=TINY, block_sizes=BLOCKS, associativity=8
        )
        row = _fig1_row(cell)
        assert list(row) == ["mix", "64B", "256B", "1024B"]
        assert all(0.0 <= row[f"{bs}B"] <= 1.0 for bs in BLOCKS)

    def test_experiment_appends_mean_row(self):
        rows = fig1_miss_rate_vs_block_size(
            setup=TINY, mix_names=["Q2", "Q7"], block_sizes=BLOCKS
        )
        assert [r["mix"] for r in rows] == ["Q2", "Q7", "mean"]
        for bs in BLOCKS:
            key = f"{bs}B"
            assert rows[-1][key] == pytest.approx(
                (rows[0][key] + rows[1][key]) / 2
            )


class TestFailureTolerance:
    def test_failed_cell_drops_only_its_row(self, monkeypatch):
        # A permanently failed cell comes back as None from the
        # fault-tolerant grid; the experiment must still report every
        # intact mix (plus the mean over what completed).
        def one_cell_failed(fn, cells, jobs=None):
            return [None if c.mix == "Q2" else fn(c) for c in cells]

        monkeypatch.setattr(design_space, "run_grid", one_cell_failed)
        rows = fig1_miss_rate_vs_block_size(
            setup=TINY, mix_names=["Q2", "Q7"], block_sizes=(64,)
        )
        assert [r["mix"] for r in rows] == ["Q7", "mean"]

    def test_complete_groups_drops_none_chunks(self):
        kept = complete_groups(["a", "b", "c"], [1, None, 3], 1)
        assert kept == [("a", [1]), ("c", [3])]
