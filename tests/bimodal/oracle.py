"""Reference bi-modal set: one block object per way.

This is the straightforward model ``repro.bimodal.sets.BiModalSet``
replaced: every big way holds a :class:`BigBlock` with its use and dirty
bit vectors, every small way a :class:`SmallBlock`, a lookup walks the
ways, and a full set picks its victim by building the candidate list,
the protected MRU set and the unprotected pool, then drawing
``pool[rng.randrange(len(pool))]`` (:func:`pool_chooser`). Evictions are
reported as :class:`EvictedBlock` records. It is kept as the oracle the
flat set is checked against, not for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bimodal.sets import SMALLS_PER_BIG


@dataclass(slots=True)
class BigBlock:
    """A resident big block: tag plus per-sub-block use/dirty vectors."""

    tag: int
    used_mask: int = 0
    dirty_mask: int = 0

    def touch(self, sub_block: int, *, is_write: bool) -> None:
        bit = 1 << sub_block
        self.used_mask |= bit
        if is_write:
            self.dirty_mask |= bit

    @property
    def utilization(self) -> int:
        return self.used_mask.bit_count()

    @property
    def dirty_sub_blocks(self) -> int:
        return self.dirty_mask.bit_count()


@dataclass(slots=True)
class SmallBlock:
    """A resident 64 B block: big-block tag + the sub-block offset."""

    tag: int
    sub_offset: int
    dirty: bool = False


@dataclass(frozen=True, slots=True)
class EvictedBlock:
    """Eviction record handed back to the cache for writebacks/locator."""

    big: bool
    tag: int
    way: int
    sub_offset: int = 0  # small blocks only
    dirty_bursts: int = 0  # 64 B writebacks owed
    unused_sub_blocks: int = 0  # fetched-but-unreferenced (waste)
    utilization: int = 0  # used sub-block count (tracker food)

    def as_tuple(self) -> tuple[bool, int, int, int, int, int]:
        """The record in the flat set's tuple layout (no way number)."""
        return (
            self.big,
            self.tag,
            self.sub_offset,
            self.dirty_bursts,
            self.unused_sub_blocks,
            self.utilization,
        )


def pool_chooser(rng):
    """Random-not-recent: avoid the top-2 MRU ways when possible."""

    def choose(candidates, protected) -> int:
        pool = [w for w in candidates if w not in protected] or list(candidates)
        return pool[rng.randrange(len(pool))]

    return choose


class ReferenceSet:
    """One bi-modal set: X big ways + Y small ways of block objects."""

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
        self.big_ways: list[BigBlock | None] = [None] * x
        self.small_ways: list[SmallBlock | None] = [None] * y
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
        return self._state_index

    # ------------------------------------------------------------------
    def find_big(self, tag: int) -> int | None:
        for way, block in enumerate(self.big_ways):
            if block is not None and block.tag == tag:
                return way
        return None

    def find_small(self, tag: int, sub_offset: int) -> int | None:
        for way, block in enumerate(self.small_ways):
            if (
                block is not None
                and block.tag == tag
                and block.sub_offset == sub_offset
            ):
                return way
        return None

    def lookup(self, tag: int, sub_offset: int) -> tuple[bool, int] | None:
        way = self.find_big(tag)
        if way is not None:
            return True, way
        way = self.find_small(tag, sub_offset)
        if way is not None:
            return False, way
        return None

    def touch_mru(self, is_big: bool, way: int) -> None:
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

    # ------------------------------------------------------------------
    def _evict_big_way(self, way: int) -> EvictedBlock | None:
        block = self.big_ways[way]
        self.big_ways[way] = None
        self._drop_mru(True, way)
        if block is None:
            return None
        return EvictedBlock(
            big=True,
            tag=block.tag,
            way=way,
            dirty_bursts=block.dirty_sub_blocks,
            unused_sub_blocks=self.smalls_per_big - block.utilization,
            utilization=block.utilization,
        )

    def _evict_small_way(self, way: int) -> EvictedBlock | None:
        block = self.small_ways[way]
        self.small_ways[way] = None
        self._drop_mru(False, way)
        if block is None:
            return None
        return EvictedBlock(
            big=False,
            tag=block.tag,
            way=way,
            sub_offset=block.sub_offset,
            dirty_bursts=1 if block.dirty else 0,
            unused_sub_blocks=0,
            utilization=1,
        )

    def grow_small(self) -> list[EvictedBlock]:
        if self._state_index + 1 >= len(self._states):
            raise RuntimeError("already at the smallest-X state")
        victim_way = self.x - 1
        evicted = self._evict_big_way(victim_way)
        self._state_index += 1
        self.big_ways.pop()
        self.small_ways.extend([None] * self.smalls_per_big)
        return [evicted] if evicted else []

    def grow_big(self) -> list[EvictedBlock]:
        if self._state_index == 0:
            raise RuntimeError("already at the all-big state")
        evictions = []
        for _ in range(self.smalls_per_big):
            way = len(self.small_ways) - 1
            record = self._evict_small_way(way)
            if record:
                evictions.append(record)
            self.small_ways.pop()
        self._state_index -= 1
        self.big_ways.append(None)
        return evictions

    # ------------------------------------------------------------------
    def allocate_big(self, tag: int, victim_chooser) -> tuple[int, list[EvictedBlock]]:
        existing = self.find_big(tag)
        if existing is not None:
            return existing, []
        for way, block in enumerate(self.big_ways):
            if block is None:
                self.big_ways[way] = BigBlock(tag)
                return way, []
        candidates = list(range(len(self.big_ways)))
        protected = {w for big, w in self.mru_ways() if big}
        way = victim_chooser(candidates, protected)
        record = self._evict_big_way(way)
        self.big_ways[way] = BigBlock(tag)
        return way, [record] if record else []

    def allocate_small(
        self, tag: int, sub_offset: int, victim_chooser
    ) -> tuple[int, list[EvictedBlock]]:
        existing = self.find_small(tag, sub_offset)
        if existing is not None:
            return existing, []
        for way, block in enumerate(self.small_ways):
            if block is None:
                self.small_ways[way] = SmallBlock(tag, sub_offset)
                return way, []
        candidates = list(range(len(self.small_ways)))
        protected = {w for big, w in self.mru_ways() if not big}
        way = victim_chooser(candidates, protected)
        record = self._evict_small_way(way)
        self.small_ways[way] = SmallBlock(tag, sub_offset)
        return way, [record] if record else []

    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        big = sum(1 for b in self.big_ways if b is not None)
        small = sum(1 for b in self.small_ways if b is not None)
        return (big * self.smalls_per_big + small) * 64

    def used_bytes(self) -> int:
        big = sum(b.utilization for b in self.big_ways if b is not None)
        small = sum(1 for b in self.small_ways if b is not None)
        return big * 64 + small * 64

    @property
    def associativity(self) -> int:
        return self.x + self.y


def record_block_touch(entry, is_big: bool, way: int, sub: int, is_write: bool) -> None:
    """Touch a resident block of a flat ``BiModalSet`` and promote it to MRU.

    The cache's block touch as a separate step, which its access path
    now inlines: a big block marks the sub-block used (and dirty on a
    write), a small block only turns dirty.
    """
    if is_big:
        if entry.big_tags[way] is None:
            raise RuntimeError("way locator pointed at an empty big way")
        bit = 1 << sub
        entry.big_used[way] |= bit
        if is_write:
            entry.big_dirty[way] |= bit
    else:
        if entry.small_keys[way] is None:
            raise RuntimeError("way locator pointed at an empty small way")
        if is_write:
            entry.small_dirty[way] = True
    entry.touch_mru(is_big, way)
