"""Lightweight statistics primitives shared by every simulator component.

The paper reports rates (hit rates, row-buffer hit rates, predictor
accuracies), averages (access latency, miss penalty) and distributions
(block utilization, MRU hit position). These helpers provide exactly
those aggregations with zero external dependencies so that inner-loop
accounting stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counter", "MeanStat", "RunningMean", "Histogram", "RateStat"]


@dataclass(slots=True)
class Counter:
    """A named monotonic event counter."""

    value: int = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


@dataclass(slots=True)
class MeanStat:
    """Count and total of samples, for their mean; no extremes.

    The caches' hit/miss and main memory's read latencies:
    their hot paths add to ``count`` and ``total`` inline.
    """

    count: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0


@dataclass(slots=True)
class RunningMean(MeanStat):
    """A :class:`MeanStat` plus min/max, all four kept by :meth:`add`
    (the ``repro.obs.metrics`` distributions)."""

    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        if sample < self.minimum:
            self.minimum = sample
        if sample > self.maximum:
            self.maximum = sample

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")


@dataclass(slots=True)
class Histogram:
    """Integer-bucket histogram (e.g. utilization levels 1..8, MRU ranks)."""

    buckets: dict[int, int] = field(default_factory=dict)

    def add(self, bucket: int, amount: int = 1) -> None:
        self.buckets[bucket] = self.buckets.get(bucket, 0) + amount

    @property
    def total(self) -> int:
        return sum(self.buckets.values())

    def fraction(self, bucket: int) -> float:
        total = self.total
        return self.buckets.get(bucket, 0) / total if total else 0.0

    def fractions(self) -> dict[int, float]:
        total = self.total
        if not total:
            return {}
        return {k: v / total for k, v in sorted(self.buckets.items())}

    def cumulative_fraction(self, upto: int) -> float:
        """Fraction of mass in buckets <= ``upto``."""
        total = self.total
        if not total:
            return 0.0
        return sum(v for k, v in self.buckets.items() if k <= upto) / total

    def reset(self) -> None:
        self.buckets.clear()


@dataclass(slots=True)
class RateStat:
    """Hits/total rate with explicit miss accounting."""

    hits: int = 0
    misses: int = 0

    def record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def rate(self) -> float:
        total = self.total
        return self.hits / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        total = self.total
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

