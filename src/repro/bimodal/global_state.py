"""Cache-wide (X_glob, Y_glob) adaptation (Section III-B4).

The DRAM cache controller keeps a global preferred state and two demand
counters, ``D_big`` and ``D_small``, incremented on each cache miss by
the predicted size of the missing block. The cache counts its accesses
and calls :meth:`GlobalStateController.end_interval` after every
``interval`` of them (paper: 1M); the controller then computes

    R = W * D_small / D_big          (W = 0.75 boosts big blocks)

and nudges the global state one step toward more small ways when
``R > Y/X`` or toward more big ways when ``R < (Y-8)/(X+1)``. Individual
sets then drift toward the global state through the Table II replacement
actions on their own misses.
"""

from __future__ import annotations

__all__ = ["GlobalStateController"]


class GlobalStateController:
    """Demand-driven selector of the preferred (X, Y) set state."""

    def __init__(
        self,
        states: tuple[tuple[int, int], ...],
        *,
        weight: float = 0.75,
        interval: int = 1_000_000,
        smalls_per_big: int = 8,
    ) -> None:
        if not states:
            raise ValueError("states must be non-empty")
        if weight <= 0:
            raise ValueError("weight must be positive")
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self._states = states
        self.weight = weight
        self.interval = interval
        self.smalls_per_big = smalls_per_big
        self._rank = 0  # index into states; 0 = all big
        self.demand_big = 0
        self.demand_small = 0
        self.updates = 0
        self.transitions = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> tuple[int, int]:
        return self._states[self._rank]

    @property
    def rank(self) -> int:
        return self._rank

    def record_miss(self, *, predicted_big: bool) -> None:
        """Account demand at each miss event."""
        if predicted_big:
            self.demand_big += 1
        else:
            self.demand_small += 1

    def end_interval(self) -> None:
        """Adapt at an interval boundary: step (X, Y) toward the demand."""
        self.updates += 1
        x, y = self.state
        d_big, d_small = self.demand_big, self.demand_small
        self.demand_big = 0
        self.demand_small = 0
        if d_big == 0 and d_small == 0:
            return
        # R = W * D_small / D_big; an all-big demand drives R to 0, an
        # all-small demand to +inf, both handled without division hazards.
        ratio = (
            float("inf") if d_big == 0 else self.weight * d_small / d_big
        )
        step = self.smalls_per_big
        if ratio > y / x and self._rank + 1 < len(self._states):
            self._rank += 1
            self.transitions += 1
        elif self._rank > 0 and (
            ratio < (y - step) / (x + 1)
            # The paper's strict inequality can never fire at the boundary
            # (Y-8 = 0 demands R < 0); zero small demand is the unambiguous
            # all-big signal, so it steps back toward (4, 0) as intended.
            or d_small == 0
        ):
            self._rank -= 1
            self.transitions += 1

    def force_state(self, rank: int) -> None:
        """Pin the global state (used by fixed-block ablations)."""
        if not 0 <= rank < len(self._states):
            raise ValueError("rank out of range")
        self._rank = rank
