"""Placement of bi-modal sets and their metadata in the DRAM stack.

Section III-B2 / Figure 4: each set's 2 KB of data maps onto one DRAM
page of a *data bank*; the metadata (set state + up to 18 tags with
attribute bits) for all sets whose data lives in channel ``c`` is packed
into a dedicated *metadata bank* in channel ``(c+1) % C`` — so a tag read
and the anticipatory data-row activation proceed concurrently on two
different channels.

Packing density is the source of the metadata row-buffer-hit advantage:
at ~128 B of metadata per 2 KB set, a 2 KB metadata page covers 16
consecutive sets, versus exactly one set per page when tags are
co-located with data (the ablation mode reproducing Figure 9b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = ["MetadataLayout"]


@dataclass(frozen=True)
class MetadataLayout:
    """Maps set indices to data and metadata (channel, bank, row)."""

    num_sets: int
    channels: int
    banks_per_channel: int
    page_size: int = 2048
    meta_bytes_per_set: int = 128  # 18 tags + state, rounded to 2 bursts
    colocated: bool = False

    def __post_init__(self) -> None:
        if self.channels < 1 or self.banks_per_channel < 2:
            raise ValueError("need >= 1 channel and >= 2 banks per channel")
        if self.meta_bytes_per_set < 64:
            raise ValueError("metadata per set is at least one burst")

    # ------------------------------------------------------------------
    @cached_property
    def data_banks_per_channel(self) -> int:
        """Bank 0 of every channel is reserved for metadata."""
        return self.banks_per_channel if self.colocated else self.banks_per_channel - 1

    @cached_property
    def sets_per_metadata_page(self) -> int:
        return self.page_size // self.meta_bytes_per_set

    @cached_property
    def metadata_bursts(self) -> int:
        """DRAM bursts to read one set's full tag array (paper: 2 or 3)."""
        return (self.meta_bytes_per_set + 63) // 64

    # ------------------------------------------------------------------
    # Each map has one definition, its table: BiModalCache reads the
    # tables per access, and the per-set methods read them too.
    @cached_property
    def data_locations(self) -> list[tuple[int, int, int]]:
        """(channel, bank, row) of every set's 2 KB data page, by set."""
        channels = self.channels
        banks = self.data_banks_per_channel
        first = 0 if self.colocated else 1  # bank 0 holds the metadata
        return [
            (s % channels, first + s // channels % banks, s // channels // banks)
            for s in range(self.num_sets)
        ]

    @cached_property
    def metadata_locations(self) -> list[tuple[int, int, int]]:
        """(channel, bank, row) of every set's metadata, by set.

        Separate mode: dedicated bank 0 of the *next* channel, densely
        packed. Co-located mode: the set's own data row (tags share the
        page with data, as in Loh-Hill/AlloyCache layouts).
        """
        if self.colocated:
            return self.data_locations
        channels = self.channels
        per_page = self.sets_per_metadata_page
        return [
            ((s % channels + 1) % channels, 0, s // channels // per_page)
            for s in range(self.num_sets)
        ]

    def data_location(self, set_index: int) -> tuple[int, int, int]:
        """(channel, bank, row) of a set's 2 KB data page."""
        return self.data_locations[set_index]

    def metadata_location(self, set_index: int) -> tuple[int, int, int]:
        """(channel, bank, row) of a set's metadata."""
        return self.metadata_locations[set_index]
