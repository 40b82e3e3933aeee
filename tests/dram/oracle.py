"""Reference models for validating the DRAM device.

``ReferenceBank`` simulates one DRAM bank at command granularity
(PRE/ACT/CAS with explicit inter-command constraints). It is
deliberately slow and simple: it is the oracle that
``test_kernel_validation.py`` checks every
:class:`~repro.dram.device.DRAMDevice` entry point against on
randomized request sequences (and ``test_reference_validation.py``
one bank against), which is the kind of evidence a timing model needs
before anyone trusts the numbers built on top of it.

``decode`` is the main-memory address map written as plain integer
arithmetic from the geometry: the placement that the device's
mask/shift copies (``read_fast``/``write_fast`` and ``tail_trains``)
must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import DRAMGeometry, DRAMTimingConfig

__all__ = ["DRAMLocation", "ReferenceAccess", "ReferenceBank", "decode"]


@dataclass(frozen=True, slots=True)
class DRAMLocation:
    """Decoded placement of an address."""

    channel: int
    bank: int
    row: int
    column: int  # 64 B-burst index within the row


def decode(geometry: DRAMGeometry, address: int) -> DRAMLocation:
    """Row-rank-bank-mc-column interleaving (Table IV), LSB first.

    Above the 64 B offset come the column, then the channel (mc), the
    bank and the row. The channel and bank fields are as wide as the
    next power of two of their counts, and a non-power-of-two count
    folds the field's value with a modulo.
    """
    columns = geometry.page_size // 64
    channel_span = 1 << (geometry.channels - 1).bit_length()
    bank_span = 1 << (geometry.banks_per_channel - 1).bit_length()
    burst = address // 64
    column = burst % columns
    rest = burst // columns
    channel = rest % channel_span % geometry.channels
    rest //= channel_span
    bank = rest % bank_span % geometry.banks_per_channel
    return DRAMLocation(channel, bank, rest // bank_span, column)


@dataclass(frozen=True, slots=True)
class ReferenceAccess:
    """One resolved access with its command times."""

    precharge_at: int | None
    activate_at: int | None
    cas_at: int
    data_ready: int


class ReferenceBank:
    """Single bank, explicit command schedule, in-order service.

    Constraints modeled (matching the fast model's contract):

    * CAS→CAS to the open row: ``tCCD``;
    * ACT→CAS: ``tRCD``; PRE→ACT: ``tRP``;
    * a new command sequence cannot start before the previous command's
      issue slot frees (``ready_at``);
    * refresh every ``tREFI`` lasting ``tRFC``, closing the row; idle
      refreshes are not charged to later requests. ``refresh_offset``
      delays the first refresh (a device staggers its banks).
    """

    __slots__ = ("_t", "_open_row", "_next_slot", "_next_refresh")

    def __init__(self, timings: DRAMTimingConfig, *, refresh_offset: int = 0) -> None:
        self._t = timings
        self._open_row: int | None = None
        self._next_slot = 0
        self._next_refresh = timings.trefi + refresh_offset

    def _refresh_adjust(self, t: int) -> int:
        if t < self._next_refresh:
            return t
        elapsed = t - self._next_refresh
        completed = elapsed // self._t.trefi
        self._next_refresh += completed * self._t.trefi
        if t < self._next_refresh + self._t.trfc:
            t = self._next_refresh + self._t.trfc
        self._next_refresh += self._t.trefi
        self._open_row = None
        return t

    def _open(self, row: int, now: int) -> tuple[int | None, int | None, int]:
        """Schedule PRE/ACT as needed; returns (PRE, ACT, earliest CAS)."""
        t = self._refresh_adjust(max(now, self._next_slot))
        precharge_at = None
        activate_at = None
        if self._open_row is None:
            activate_at = t
            t += self._t.trcd
        elif self._open_row != row:
            precharge_at = t
            t += self._t.trp
            activate_at = t
            t += self._t.trcd
        self._open_row = row
        return precharge_at, activate_at, t

    def activate(self, row: int, now: int) -> ReferenceAccess:
        """ACT without CAS (anticipatory activation).

        Same PRE/ACT schedule as :meth:`access`; ``cas_at`` is the
        earliest slot for the column command, which is not issued, so the
        bank's next command may start there.
        """
        precharge_at, activate_at, cas_at = self._open(row, now)
        self._next_slot = cas_at
        return ReferenceAccess(
            precharge_at=precharge_at,
            activate_at=activate_at,
            cas_at=cas_at,
            data_ready=cas_at + self._t.cl,
        )

    def access(self, row: int, now: int) -> ReferenceAccess:
        precharge_at, activate_at, cas_at = self._open(row, now)
        self._next_slot = cas_at + self._t.tccd
        return ReferenceAccess(
            precharge_at=precharge_at,
            activate_at=activate_at,
            cas_at=cas_at,
            data_ready=cas_at + self._t.cl,
        )
