"""Tests for the statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import Counter, Histogram, RateStat, RunningMean


class TestCounter:
    def test_add_and_reset(self):
        c = Counter()
        c.add()
        c.add(5)
        assert c.value == 6
        c.reset()
        assert c.value == 0


class TestRunningMean:
    def test_empty_mean_is_zero(self):
        assert RunningMean().mean == 0.0

    def test_mean_min_max(self):
        m = RunningMean()
        for x in (2.0, 4.0, 9.0):
            m.add(x)
        assert m.mean == pytest.approx(5.0)
        assert m.minimum == 2.0
        assert m.maximum == 9.0
        assert m.count == 3

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_mean_matches_reference(self, samples):
        m = RunningMean()
        for s in samples:
            m.add(s)
        assert m.mean == pytest.approx(sum(samples) / len(samples))
        assert m.minimum == min(samples)
        assert m.maximum == max(samples)


class TestHistogram:
    def test_fractions_sum_to_one(self):
        h = Histogram()
        for bucket, n in ((1, 3), (2, 5), (8, 2)):
            h.add(bucket, n)
        fractions = h.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert h.fraction(2) == pytest.approx(0.5)

    def test_cumulative(self):
        h = Histogram()
        h.add(0, 6)
        h.add(1, 3)
        h.add(5, 1)
        assert h.cumulative_fraction(1) == pytest.approx(0.9)
        assert h.cumulative_fraction(5) == pytest.approx(1.0)

    def test_empty(self):
        h = Histogram()
        assert h.total == 0
        assert h.fraction(1) == 0.0
        assert h.fractions() == {}
        assert h.cumulative_fraction(10) == 0.0


class TestRateStat:
    def test_rates(self):
        r = RateStat()
        for hit in (True, True, False, True):
            r.record(hit)
        assert r.rate == pytest.approx(0.75)
        assert r.miss_rate == pytest.approx(0.25)
        assert r.total == 4

    def test_empty_rate(self):
        assert RateStat().rate == 0.0

    @given(st.lists(st.booleans(), max_size=100))
    def test_rate_complement(self, hits):
        r = RateStat()
        for h in hits:
            r.record(h)
        if hits:
            assert r.rate + r.miss_rate == pytest.approx(1.0)

