"""Set-dueling alternative to the demand-counter global adaptation.

The paper's global (X, Y) selection uses demand counters with a weight W
(Section III-B4) and cites set-dueling [Qureshi et al., 9] as the
related sampling technique. This module implements the set-dueling
variant as an extension study: a few *leader sets* are pinned to each
candidate (X, Y) state; per-leader miss counters elect the state for all
*follower sets* at interval boundaries.

The ablation benchmark compares the two controllers' adapted states and
resulting hit rates, quantifying how much the simpler demand-ratio
controller gives up against the classic dueling approach.
"""

from __future__ import annotations

__all__ = ["SetDuelingController"]


class SetDuelingController:
    """Leader-set election of the cache-wide (X, Y) state.

    Drop-in replacement for
    :class:`~repro.bimodal.global_state.GlobalStateController`: exposes
    the same ``state``/``rank``/``record_miss``/``end_interval`` API so
    the Bi-Modal cache can run either controller unchanged.

    Leader assignment: set ``s`` leads state ``k`` when
    ``s % (leader_spacing * num_states) == k * leader_spacing``. Leaders
    keep their pinned rank; followers use the elected rank.
    """

    def __init__(
        self,
        states: tuple[tuple[int, int], ...],
        *,
        interval: int = 1_000_000,
        leader_spacing: int = 16,
        smalls_per_big: int = 8,
    ) -> None:
        if not states:
            raise ValueError("states must be non-empty")
        if interval < 1 or leader_spacing < 1:
            raise ValueError("interval and leader_spacing must be >= 1")
        self._states = states
        self.interval = interval
        self.leader_spacing = leader_spacing
        self.smalls_per_big = smalls_per_big
        self._rank = 0
        self._leader_misses = [0] * len(states)
        self._leader_accesses = [0] * len(states)
        self.updates = 0
        self.transitions = 0
        # compatibility with the demand-counter controller's interface
        self.demand_big = 0
        self.demand_small = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> tuple[int, int]:
        return self._states[self._rank]

    @property
    def rank(self) -> int:
        return self._rank

    def leader_rank(self, set_index: int) -> int | None:
        """The pinned rank when ``set_index`` is a leader, else None."""
        period = self.leader_spacing * len(self._states)
        offset = set_index % period
        if offset % self.leader_spacing == 0:
            return offset // self.leader_spacing
        return None

    # ------------------------------------------------------------------
    def observe_leader(self, set_index: int, *, miss: bool) -> None:
        """Feed a leader set's access outcome into the election."""
        rank = self.leader_rank(set_index)
        if rank is None:
            return
        self._leader_accesses[rank] += 1
        if miss:
            self._leader_misses[rank] += 1

    def record_miss(self, *, predicted_big: bool) -> None:
        """Interface parity with the demand controller (kept for stats)."""
        if predicted_big:
            self.demand_big += 1
        else:
            self.demand_small += 1

    def end_interval(self) -> None:
        """Elect at an interval boundary: the leaders' lowest miss rate."""
        self.updates += 1
        rates = []
        for rank in range(len(self._states)):
            accesses = self._leader_accesses[rank]
            if accesses < 8:  # insufficient evidence: neutral
                rates.append(None)
            else:
                rates.append(self._leader_misses[rank] / accesses)
        observed = [(r, k) for k, r in enumerate(rates) if r is not None]
        self._leader_misses = [0] * len(self._states)
        self._leader_accesses = [0] * len(self._states)
        self.demand_big = 0
        self.demand_small = 0
        if not observed:
            return
        best_rate, best_rank = min(observed)
        if best_rank != self._rank:
            self._rank = best_rank
            self.transitions += 1

    def force_state(self, rank: int) -> None:
        if not 0 <= rank < len(self._states):
            raise ValueError("rank out of range")
        self._rank = rank
