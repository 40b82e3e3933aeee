"""Bi-modal cache sets: (X, Y) states, way layout and Table II replacement.

A set of size 2 KB (one DRAM page) holds ``X`` big (512 B) and ``Y`` small
(64 B) blocks with the allowed states ``{(4,0), (3,8), (2,16)}``; a 4 KB
set allows ``{(8,0), (7,8), (6,16), (5,24), (4,32)}`` (Section III-B1).
Converting one big way frees exactly ``big/small = 8`` small ways, and
state changes always involve the **highest-numbered** ways so that the
data layout (big ways packed left-to-right, small ways right-to-left in
the DRAM page) stays valid without data movement.
"""

from __future__ import annotations

import random

__all__ = ["SMALLS_PER_BIG", "allowed_states", "BiModalSet"]

SMALLS_PER_BIG = 8  # 512 B / 64 B


def allowed_states(set_size: int, big_block_size: int = 512) -> tuple[tuple[int, int], ...]:
    """Legal (X, Y) states for a set (paper: 2 KB and 4 KB sets).

    The maximum number of small ways is capped at 4 * SMALLS_PER_BIG
    worth of conversions... concretely the paper allows converting big
    ways down to a floor of X = max_big // 2 for 2 KB sets ((2,16)) and
    X = 4 for 4 KB sets ((4,32)) — i.e. at most half the big ways convert.
    """
    max_big = set_size // big_block_size
    if max_big < 2:
        raise ValueError("set must hold at least two big blocks")
    smalls_per_big = big_block_size // 64
    floor = max_big - (max_big // 2)
    states = []
    for x in range(max_big, floor - 1, -1):
        states.append((x, (max_big - x) * smalls_per_big))
    return tuple(states)


class BiModalSet:
    """One bi-modal set: X big ways + Y small ways, kept as flat lists.

    Way numbering follows the paper's layout: big ways 0..X-1 from the
    left of the DRAM page, small ways 0..Y-1 from the right. Big way ``w``
    holds tag ``big_tags[w]`` (None when empty) and the per-sub-block use
    and dirty bit vectors ``big_used[w]`` and ``big_dirty[w]``; small way
    ``w`` holds the key ``small_keys[w] = tag * smalls_per_big + sub``
    (None when empty) and the flag ``small_dirty[w]``. Empty ways keep
    zero vectors and a clean flag. The MRU pair (the information the way
    locator would hold for this set) is kept for the random-not-recent
    replacement policy.

    An eviction is reported as the tuple ``(big, tag, sub_offset,
    dirty_bursts, unused_sub_blocks, utilization)``.
    """

    __slots__ = (
        "_states",
        "smalls_per_big",
        "_state_index",
        "big_tags",
        "big_used",
        "big_dirty",
        "small_keys",
        "small_dirty",
        "_mru",
    )

    def __init__(
        self,
        states: tuple[tuple[int, int], ...],
        *,
        smalls_per_big: int = SMALLS_PER_BIG,
    ) -> None:
        self._states = states
        self.smalls_per_big = smalls_per_big
        self._state_index = 0  # start at (max X, 0): all blocks big
        x, y = states[0]
        self.big_tags: list[int | None] = [None] * x
        self.big_used = [0] * x
        self.big_dirty = [0] * x
        self.small_keys: list[int | None] = [None] * y
        self.small_dirty = [False] * y
        self._mru: list[tuple[bool, int]] = []  # [(is_big, way)], newest first

    # ------------------------------------------------------------------
    @property
    def state(self) -> tuple[int, int]:
        return self._states[self._state_index]

    @property
    def x(self) -> int:
        return self.state[0]

    @property
    def y(self) -> int:
        return self.state[1]

    def state_rank(self) -> int:
        """0 = all-big; increasing rank = more small ways."""
        return self._state_index

    # ------------------------------------------------------------------
    def find_big(self, tag: int) -> int | None:
        tags = self.big_tags
        return tags.index(tag) if tag in tags else None

    def find_small(self, tag: int, sub_offset: int) -> int | None:
        key = tag * self.smalls_per_big + sub_offset
        keys = self.small_keys
        return keys.index(key) if key in keys else None

    def lookup(self, tag: int, sub_offset: int) -> tuple[bool, int] | None:
        """(is_big, way) of the block covering (tag, sub_offset), if any."""
        tags = self.big_tags
        if tag in tags:
            return True, tags.index(tag)
        key = tag * self.smalls_per_big + sub_offset
        keys = self.small_keys
        if key in keys:
            return False, keys.index(key)
        return None

    def touch_mru(self, is_big: bool, way: int) -> None:
        """Promote a way to MRU (top-2 tracked, like the way locator)."""
        key = (is_big, way)
        if key in self._mru:
            self._mru.remove(key)
        self._mru.insert(0, key)
        del self._mru[2:]

    def mru_ways(self) -> frozenset[tuple[bool, int]]:
        return frozenset(self._mru)

    def _drop_mru(self, is_big: bool, way: int) -> None:
        key = (is_big, way)
        if key in self._mru:
            self._mru.remove(key)

    def _victim(self, is_big: bool, ways: int, rng: random.Random) -> int:
        """Random-not-recent: a uniform draw over the unprotected ways.

        The protected ways are the set's MRU ways of the wanted kind (at
        most two). The draw indexes the ascending list of the other
        ways, or all ``ways`` when every one is protected; stepping it
        past the protected ways in ascending order turns it into a way
        number without building that list.
        """
        protected = 0
        low = high = ways
        for big, way in self._mru:
            if big == is_big:
                protected += 1
                if way < low:
                    low, high = way, low
                else:
                    high = way
        if protected >= ways:
            return rng.randrange(ways)
        way = rng.randrange(ways - protected)
        if low <= way:
            way += 1
            if high <= way:
                way += 1
        return way

    # ------------------------------------------------------------------
    # eviction primitives (all produce eviction tuples)
    # ------------------------------------------------------------------
    def _evict_big_way(self, way: int) -> tuple | None:
        tag = self.big_tags[way]
        self._drop_mru(True, way)
        if tag is None:
            return None
        utilization = self.big_used[way].bit_count()
        record = (
            True,
            tag,
            0,
            self.big_dirty[way].bit_count(),
            self.smalls_per_big - utilization,
            utilization,
        )
        self.big_tags[way] = None
        self.big_used[way] = 0
        self.big_dirty[way] = 0
        return record

    def _evict_small_way(self, way: int) -> tuple | None:
        key = self.small_keys[way]
        self._drop_mru(False, way)
        if key is None:
            return None
        tag, sub_offset = divmod(key, self.smalls_per_big)
        record = (False, tag, sub_offset, 1 if self.small_dirty[way] else 0, 0, 1)
        self.small_keys[way] = None
        self.small_dirty[way] = False
        return record

    def grow_small(self) -> list[tuple]:
        """(X, Y) -> (X-1, Y+8): convert the highest big way to 8 smalls."""
        if self._state_index + 1 >= len(self._states):
            raise RuntimeError("already at the smallest-X state")
        evicted = self._evict_big_way(len(self.big_tags) - 1)
        self._state_index += 1
        self.big_tags.pop()
        self.big_used.pop()
        self.big_dirty.pop()
        step = self.smalls_per_big
        self.small_keys += [None] * step
        self.small_dirty += [False] * step
        return [evicted] if evicted else []

    def grow_big(self) -> list[tuple]:
        """(X, Y) -> (X+1, Y-8): evict the 8 highest small ways."""
        if self._state_index == 0:
            raise RuntimeError("already at the all-big state")
        evictions = []
        for _ in range(self.smalls_per_big):
            record = self._evict_small_way(len(self.small_keys) - 1)
            if record:
                evictions.append(record)
            self.small_keys.pop()
            self.small_dirty.pop()
        self._state_index -= 1
        self.big_tags.append(None)
        self.big_used.append(0)
        self.big_dirty.append(0)
        return evictions

    # ------------------------------------------------------------------
    # allocation (Table II)
    # ------------------------------------------------------------------
    def allocate_big(self, tag: int, rng: random.Random) -> tuple[int, list[tuple]]:
        """Install a big block; returns (way, evictions).

        The block starts with empty use and dirty vectors. Idempotent:
        allocating an already-resident tag returns its way.
        """
        tags = self.big_tags
        if tag in tags:
            return tags.index(tag), []
        if None in tags:
            way = tags.index(None)
            tags[way] = tag
            return way, []
        way = self._victim(True, len(tags), rng)
        record = self._evict_big_way(way)
        tags[way] = tag
        return way, [record]

    def allocate_small(
        self, tag: int, sub_offset: int, rng: random.Random
    ) -> tuple[int, list[tuple]]:
        """Install a clean small block; returns (way, evictions).

        Idempotent: allocating an already-resident block returns its way.
        """
        key = tag * self.smalls_per_big + sub_offset
        keys = self.small_keys
        if key in keys:
            return keys.index(key), []
        if None in keys:
            way = keys.index(None)
            keys[way] = key
            return way, []
        way = self._victim(False, len(keys), rng)
        record = self._evict_small_way(way)
        keys[way] = key
        return way, [record]

    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        big = len(self.big_tags) - self.big_tags.count(None)
        small = len(self.small_keys) - self.small_keys.count(None)
        return (big * self.smalls_per_big + small) * 64

    def used_bytes(self) -> int:
        """Bytes actually referenced (space-utilization metric)."""
        big = sum(map(int.bit_count, self.big_used))
        small = len(self.small_keys) - self.small_keys.count(None)
        return big * 64 + small * 64

    @property
    def associativity(self) -> int:
        return self.x + self.y
