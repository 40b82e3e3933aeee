"""Per-ghost reference loops: the oracle for the shared ghost pass.

These are the ghost loops ``repro.mrc.ghost`` ran before it shared its
columns across ghosts. Each ghost decodes every address itself, each
bi-modal ghost trains its own region-utilization tracker, and the
warm-up reset is a counter compared on every record. They live only
here, independent of the production kernels, so that
tests/mrc/test_shared_pass.py can hold the shared pass to them row for
row.
"""

from __future__ import annotations

from repro.bimodal.sets import allowed_states
from repro.common.addressing import log2_int

TRACKER_ENTRIES = 4096


class GhostCache:
    """Tag-only set-associative LRU cache (one dict per set, LRU first)."""

    def __init__(self, capacity: int, associativity: int, block_size: int = 64) -> None:
        num_sets = capacity // (block_size * associativity)
        num_sets = 1 << (num_sets.bit_length() - 1)
        self.associativity = associativity
        self._offset_bits = log2_int(block_size)
        self._index_bits = log2_int(num_sets)
        self._index_mask = num_sets - 1
        self._sets: list[dict[int, None]] = [{} for _ in range(num_sets)]
        self.hits = 0
        self.accesses = 0

    def consume(self, addresses, warmup: int = 0) -> None:
        """Drive a batch; counters restart just before the ``warmup``-th record."""
        offset_bits = self._offset_bits
        index_mask = self._index_mask
        index_bits = self._index_bits
        sets = self._sets
        assoc = self.associativity
        hits = 0
        issued = 0
        for address in addresses:
            issued += 1
            if issued == warmup:
                hits = 0
                self.hits = 0
                self.accesses = -issued + 1  # counters restart at this record
            block = address >> offset_bits
            ways = sets[block & index_mask]
            tag = block >> index_bits
            if tag in ways:
                del ways[tag]
                ways[tag] = None
                hits += 1
            elif len(ways) >= assoc:
                del ways[next(iter(ways))]
                ways[tag] = None
            else:
                ways[tag] = None
        self.hits += hits
        self.accesses += issued

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return (self.accesses - self.hits) / self.accesses


class GhostBiModal:
    """Fixed-(X, Y) bi-modal set with its own region-utilization tracker."""

    def __init__(
        self,
        capacity: int,
        *,
        set_size: int = 2048,
        big_block_size: int = 512,
        big_ways: int,
        small_ways: int,
        utilization_threshold: int = 5,
    ) -> None:
        num_sets = capacity // set_size
        self.big_ways = big_ways
        self.small_ways = small_ways
        self.utilization_threshold = utilization_threshold
        self._small_to_big_bits = log2_int(big_block_size) - 6
        self._sub_mask = (big_block_size // 64) - 1
        self._index_bits = log2_int(num_sets)
        self._index_mask = num_sets - 1
        self._big: list[dict[int, None]] = [{} for _ in range(num_sets)]
        self._small: list[dict[int, None]] = [{} for _ in range(num_sets)]
        self._tracker: dict[int, int] = {}
        self.hits = 0
        self.accesses = 0

    def consume(self, addresses, warmup: int = 0) -> None:
        to_big = self._small_to_big_bits
        sub_mask = self._sub_mask
        index_mask = self._index_mask
        index_bits = self._index_bits
        big_sets = self._big
        small_sets = self._small
        tracker = self._tracker
        x = self.big_ways
        y = self.small_ways
        threshold = self.utilization_threshold
        hits = 0
        issued = 0
        for address in addresses:
            issued += 1
            if issued == warmup:
                hits = 0
                self.hits = 0
                self.accesses = -issued + 1
            small_id = address >> 6
            big_id = small_id >> to_big
            index = big_id & index_mask
            big_tag = big_id >> index_bits
            # Train the region predictor on every access (bounded LRU).
            mask = tracker.pop(big_id, 0) | (1 << (small_id & sub_mask))
            tracker[big_id] = mask
            if len(tracker) > TRACKER_ENTRIES:
                del tracker[next(iter(tracker))]
            big = big_sets[index]
            if big_tag in big:
                del big[big_tag]
                big[big_tag] = None
                hits += 1
                continue
            small = small_sets[index]
            if y and small_id in small:
                del small[small_id]
                small[small_id] = None
                hits += 1
                continue
            # Miss: fill big for predicted-dense regions, small otherwise.
            if not y or bin(mask).count("1") >= threshold:
                if len(big) >= x:
                    del big[next(iter(big))]
                big[big_tag] = None
            else:
                if len(small) >= y:
                    del small[next(iter(small))]
                small[small_id] = None
        self.hits += hits
        self.accesses += issued

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def adaptive_row(
    stream, capacity: int, set_size: int, big_block_size: int, warmup: int = 0
) -> list[int]:
    """``[hits, accesses, best_x, best_y]`` of the best fixed (X, Y) state.

    One :class:`GhostBiModal` per allowed state; the first state with
    the highest hit rate wins.
    """
    best = None
    for x, y in allowed_states(set_size, big_block_size):
        ghost = GhostBiModal(
            capacity,
            set_size=set_size,
            big_block_size=big_block_size,
            big_ways=x,
            small_ways=y,
        )
        ghost.consume(stream, warmup)
        if best is None or ghost.hit_rate > best[0].hit_rate:
            best = (ghost, x, y)
    ghost, x, y = best
    return [ghost.hits, ghost.accesses, x, y]


def state_row(
    stream, capacity: int, set_size: int, big_block_size: int, state, warmup: int = 0
) -> list[int]:
    """``[hits, accesses, x, y]`` of one fixed (X, Y) state."""
    x, y = state
    ghost = GhostBiModal(
        capacity, set_size=set_size, big_block_size=big_block_size, big_ways=x, small_ways=y
    )
    ghost.consume(stream, warmup)
    return [ghost.hits, ghost.accesses, x, y]


def lru_row(
    stream, capacity: int, associativity: int, block_size: int, warmup: int = 0
) -> list[int]:
    """``[hits, accesses, 0, 0]`` of one LRU ghost (the dse row shape)."""
    ghost = GhostCache(capacity, associativity, block_size)
    ghost.consume(stream, warmup)
    return [ghost.hits, ghost.accesses, 0, 0]
