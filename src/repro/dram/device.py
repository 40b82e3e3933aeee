"""A complete DRAM device: channels, banks and address interleaving.

Used twice in the system:

* as **off-chip main memory** (DDR3-1600H) where requests carry physical
  addresses decoded with the paper's ``row-rank-bank-mc-column``
  interleaving (Table IV) — ranks are folded into the bank dimension; and
* as the **stacked DRAM** of the cache, where organizations compute their
  own (channel, bank, row) placement (e.g. the Bi-Modal metadata bank) and
  use :meth:`DRAMDevice.access_direct_fast`.

Timing kernel
-------------
The device *is* the per-access timing kernel: all bank state (open row,
ready time, refresh clock, row-buffer counters) and channel state (bus
free time, busy cycles) live in flat lists indexed by
``channel * banks_per_channel + bank``. One method resolves an access
end to end — refresh, row-buffer case, CAS, bus serialization — without
allocating. It is public as :meth:`access_direct_fast`, which the
schemes and the off-chip tail trains call directly, and private as
:meth:`_timed_fast`, which ``read_fast`` and ``write_fast`` call after
decoding an address. ``activate_direct`` (ACT only) and
``column_direct_fast`` (CAS only) are the two halves of the Bi-Modal
parallel tag/data issue. Every entry returns the plain-int data-end (or
row-open) time and leaves the row-buffer outcome (0 hit / 1 closed /
2 conflict) and the data-start in the ``last_outcome`` /
``last_data_start`` scratch attributes.

The model is open-page with in-order service at each bank: a request
waits for the bank's previous command, then pays CAS (hit), ACT + CAS
(closed) or PRE + ACT + CAS (conflict). ``tests/dram/test_kernel_validation.py``
checks every entry point against the command-level ``ReferenceBank``
oracle in ``tests/dram/oracle.py``.

Address decode is pure mask/shift: the field widths are precomputed in
``__init__`` and the modulo fold for non-power-of-two channel/bank
counts is skipped entirely when the count is a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addressing import SUB_BLOCK_BITS, log2_int
from repro.common.config import DRAMGeometry, DRAMTimingConfig

__all__ = ["DRAMLocation", "DRAMDevice"]

# Per-channel refresh stagger in cycles: bank ``i`` of every channel
# refreshes ``i * 97`` cycles after bank 0.
_REFRESH_STAGGER = 97


@dataclass(slots=True)
class DRAMLocation:
    """Decoded placement of an address."""

    channel: int
    bank: int
    row: int
    column: int  # 64B-burst index within the row


class DRAMDevice:
    """Flat timing kernel + row-rank-bank-mc-column interleaving."""

    __slots__ = (
        "name",
        "geometry",
        "timings",
        "_nch",
        "_nbk",
        "_trcd",
        "_trp",
        "_trp_trcd",
        "_cl",
        "_tccd",
        "_burst_cycles",
        "_trefi",
        "_trfc",
        "_open_row",
        "_ready_at",
        "_next_refresh",
        "_rb_hits",
        "_rb_misses",
        "_activations",
        "_precharges",
        "_refreshes",
        "_bus_free",
        "_bus_busy",
        "_column_bits",
        "_channel_bits",
        "_bank_bits",
        "_column_mask",
        "_channel_mask",
        "_bank_mask",
        "_cbr_shift",
        "_mod_channels",
        "_mod_banks",
        "bytes_transferred",
        "last_outcome",
        "last_data_start",
    )

    def __init__(
        self,
        geometry: DRAMGeometry,
        timings: DRAMTimingConfig,
        *,
        name: str = "dram",
    ) -> None:
        self.name = name
        self.geometry = geometry
        self.timings = timings
        nch = geometry.channels
        nbk = geometry.banks_per_channel
        self._nch = nch
        self._nbk = nbk
        banks = nch * nbk
        # Timing constants, flattened for the kernel.
        self._trcd = timings.trcd
        self._trp = timings.trp
        self._trp_trcd = timings.trp + timings.trcd
        self._cl = timings.cl
        self._tccd = timings.tccd
        self._burst_cycles = timings.burst_cycles
        self._trefi = timings.trefi
        self._trfc = timings.trfc
        # Per-bank state (flat, index = channel * nbk + bank).
        self._open_row = [-1] * banks  # -1 = precharged/closed
        self._ready_at = [0] * banks
        self._next_refresh = [
            timings.trefi + (i % nbk) * _REFRESH_STAGGER for i in range(banks)
        ]
        self._rb_hits = [0] * banks
        self._rb_misses = [0] * banks
        self._activations = [0] * banks
        self._precharges = [0] * banks
        self._refreshes = [0] * banks
        # Per-channel bus state.
        self._bus_free = [0] * nch
        self._bus_busy = [0] * nch
        # Address decode tables: LSB -> column, channel (mc), bank, row.
        self._column_bits = log2_int(geometry.page_size // 64)
        self._channel_bits = log2_int(_ceil_pow2(nch))
        self._bank_bits = log2_int(_ceil_pow2(nbk))
        self._column_mask = (1 << self._column_bits) - 1
        self._channel_mask = (1 << self._channel_bits) - 1
        self._bank_mask = (1 << self._bank_bits) - 1
        self._cbr_shift = SUB_BLOCK_BITS + self._column_bits
        # Non-power-of-two counts need a modulo fold after masking.
        self._mod_channels = (1 << self._channel_bits) != nch
        self._mod_banks = (1 << self._bank_bits) != nbk
        self.bytes_transferred = 0
        # Kernel scratch: outcome (0 hit / 1 closed / 2 conflict) and
        # data-start of the most recent timed access, for per-access
        # instrumentation (metadata RBH) and tests.
        self.last_outcome = 0
        self.last_data_start = 0

    # ------------------------------------------------------------------
    # address decoding (off-chip use)
    # ------------------------------------------------------------------
    def decode(self, address: int) -> DRAMLocation:
        """Split an address: LSB -> column, channel (mc), bank, row."""
        bits = address >> SUB_BLOCK_BITS
        column = bits & self._column_mask
        bits >>= self._column_bits
        channel = bits & self._channel_mask
        bits >>= self._channel_bits
        bank = bits & self._bank_mask
        row = bits >> self._bank_bits
        if self._mod_channels:
            channel %= self._nch
        if self._mod_banks:
            bank %= self._nbk
        return DRAMLocation(channel=channel, bank=bank, row=row, column=column)

    # ------------------------------------------------------------------
    # the timing kernel
    # ------------------------------------------------------------------
    def _timed_fast(
        self,
        channel: int,
        bank: int,
        row: int,
        now: int,
        bursts: int = 1,
        transfer_cycles: int | None = None,
    ) -> int:
        """Resolve one row-buffer-managed access; returns data-end time.

        Refresh stall, HIT/CLOSED/CONFLICT resolution, CAS pipelining
        (the bank takes its next command tCCD after this CAS) and CL,
        then ``transfer_cycles`` of serialization on the channel's shared
        data bus: ``bursts`` beats unless given (AlloyCache's 72 B
        tag-and-data burst). Row-buffer and command counters are updated
        in place; ``last_outcome`` / ``last_data_start`` keep the
        per-access scratch that callers (metadata RBH) and tests read.
        """
        if transfer_cycles is None:
            transfer_cycles = bursts * self._burst_cycles
        self.bytes_transferred += bursts * 64
        idx = channel * self._nbk + bank
        ready = self._ready_at
        t = ready[idx]
        if now > t:
            t = now
        if t >= self._next_refresh[idx]:
            t = self._refresh_stall(idx, t)
        open_rows = self._open_row
        current = open_rows[idx]
        if current == row:
            self.last_outcome = 0
            self._rb_hits[idx] += 1
            cas_issue = t
        elif current < 0:
            self.last_outcome = 1
            self._activations[idx] += 1
            self._rb_misses[idx] += 1
            cas_issue = t + self._trcd
        else:
            self.last_outcome = 2
            self._precharges[idx] += 1
            self._activations[idx] += 1
            self._rb_misses[idx] += 1
            cas_issue = t + self._trp_trcd
        open_rows[idx] = row
        ready[idx] = cas_issue + self._tccd
        cas_done = cas_issue + self._cl
        bus_free = self._bus_free
        start = bus_free[channel]
        if cas_done > start:
            start = cas_done
        end = start + transfer_cycles
        bus_free[channel] = end
        self._bus_busy[channel] += transfer_cycles
        self.last_data_start = start
        return end

    def _refresh_stall(self, idx: int, t: int) -> int:
        """Slow path: ``t`` crossed tREFI.

        Refreshes that fell entirely within an idle period already
        happened: they close the row and count, but do not delay this
        access. Only a refresh in progress at ``t`` stalls it, by the
        remainder of tRFC.
        """
        next_refresh = self._next_refresh
        elapsed = t - next_refresh[idx]
        completed = elapsed // self._trefi
        self._refreshes[idx] += completed
        next_refresh[idx] += completed * self._trefi
        # The bank is mid-refresh if t lands inside [start, start + tRFC).
        if t < next_refresh[idx] + self._trfc:
            t = next_refresh[idx] + self._trfc
        self._refreshes[idx] += 1
        next_refresh[idx] += self._trefi
        self._open_row[idx] = -1
        return t

    # ------------------------------------------------------------------
    # timed accesses (plain-int results, no allocation)
    # ------------------------------------------------------------------
    def read_fast(self, address: int, now: int, bursts: int = 1) -> int:
        """Read ``bursts`` consecutive 64 B beats; returns data-end time.

        Multi-burst reads stay within one row for any transfer that does
        not cross a page boundary (the paper's big blocks never do).
        """
        bits = address >> self._cbr_shift
        channel = bits & self._channel_mask
        bits >>= self._channel_bits
        bank = bits & self._bank_mask
        row = bits >> self._bank_bits
        if self._mod_channels:
            channel %= self._nch
        if self._mod_banks:
            bank %= self._nbk
        # The private name, not access_direct_fast: a wrapper that
        # patches the public methods by name then records this access
        # once, as a read, not a second time as a direct access.
        return self._timed_fast(channel, bank, row, now, bursts)

    # Writes get the same row-buffer management as reads in this model.
    # The second name keeps write call sites readable and lets wrappers
    # that patch device methods by name record the two apart.
    write_fast = read_fast

    # Access an explicitly placed row (stacked-DRAM cache use, off-chip
    # tail beats): the kernel itself, with no frame in between.
    access_direct_fast = _timed_fast

    def column_direct_fast(
        self, channel: int, bank: int, now: int, bursts: int = 1
    ) -> int:
        """Column access to a row opened via :meth:`activate_direct`.

        CAS only: no refresh check, no row-buffer counters (the
        activation already counted), ``last_outcome`` reads as a hit.
        """
        idx = channel * self._nbk + bank
        if self._open_row[idx] < 0:
            raise RuntimeError("column_access requires an open row")
        self.bytes_transferred += bursts * 64
        ready = self._ready_at
        t = ready[idx]
        if now > t:
            t = now
        ready[idx] = t + self._tccd
        cas_done = t + self._cl
        bus_free = self._bus_free
        start = bus_free[channel]
        if cas_done > start:
            start = cas_done
        cycles = bursts * self._burst_cycles
        end = start + cycles
        bus_free[channel] = end
        self._bus_busy[channel] += cycles
        self.last_outcome = 0
        self.last_data_start = start
        return end

    def activate_direct(self, channel: int, bank: int, row: int, now: int) -> int:
        """Open a row without data transfer (anticipatory activation).

        Returns the time the row is open. Re-activating the open row
        costs nothing; a different open row is precharged first.
        """
        idx = channel * self._nbk + bank
        ready = self._ready_at
        t = ready[idx]
        if now > t:
            t = now
        if t >= self._next_refresh[idx]:
            t = self._refresh_stall(idx, t)
        open_rows = self._open_row
        current = open_rows[idx]
        if current == row:
            if t > ready[idx]:
                ready[idx] = t
            return t
        if current >= 0:
            t += self._trp
            self._precharges[idx] += 1
        t += self._trcd
        self._activations[idx] += 1
        open_rows[idx] = row
        ready[idx] = t
        return t

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def row_buffer_hit_rate(self) -> float:
        hits = sum(self._rb_hits)
        total = hits + sum(self._rb_misses)
        return hits / total if total else 0.0

    def total_activations(self) -> int:
        return sum(self._activations)

    def total_precharges(self) -> int:
        return sum(self._precharges)

    def reset_stats(self) -> None:
        banks = self._nch * self._nbk
        self._rb_hits = [0] * banks
        self._rb_misses = [0] * banks
        self._activations = [0] * banks
        self._precharges = [0] * banks
        self._refreshes = [0] * banks
        self._bus_busy = [0] * self._nch
        self.bytes_transferred = 0


def _ceil_pow2(value: int) -> int:
    """Smallest power of two >= value (for non-power-of-two channel counts)."""
    return 1 << (value - 1).bit_length()
