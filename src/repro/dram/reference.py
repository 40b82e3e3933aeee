"""Command-level reference model for validating the bank timing.

``ReferenceBank`` simulates one DRAM bank at command granularity
(PRE/ACT/CAS with explicit inter-command constraints). It is
deliberately slow and simple: it is the oracle that
``tests/dram/test_kernel_validation.py`` checks every
:class:`~repro.dram.device.DRAMDevice` entry point against on
randomized request sequences, which is the kind of evidence a timing
model needs before anyone trusts the numbers built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import DRAMTimingConfig

__all__ = ["ReferenceAccess", "ReferenceBank"]


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
