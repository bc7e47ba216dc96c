"""Statistics primitives."""

import doctest
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.estimators
import repro.sim.metrics
from repro.obs.estimators import DelayHistogram
from repro.sim.metrics import ServiceMatrix, jain_index


def test_docstring_examples():
    """The modules' docstring examples must run."""
    for module in (repro.sim.metrics, repro.obs.estimators):
        outcome = doctest.testmod(module, extraglobs={"math": math})
        assert outcome.attempted > 0
        assert outcome.failed == 0


def histogram_of(samples) -> DelayHistogram:
    histogram = DelayHistogram()
    for value in samples:
        histogram.add(value)
    return histogram


class TestOnlineStats:
    """Streaming mean/variance/min/max of the latency accumulator every
    switch keeps, a :class:`DelayHistogram`: exact, not approximate."""

    def test_empty_stats_are_nan(self):
        stats = DelayHistogram()
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert math.isnan(stats.variance)
        assert math.isnan(stats.std)
        assert math.isnan(stats.min) and math.isnan(stats.max)

    def test_matches_numpy_on_samples(self):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 200, size=500)
        stats = histogram_of(samples.tolist())
        assert stats.mean == pytest.approx(samples.mean())
        assert stats.variance == pytest.approx(samples.var(ddof=1))
        assert stats.min == samples.min() and stats.max == samples.max()
        # Extrema stay Python ints (JSON digests tell 7 from 7.0).
        assert type(stats.min) is int and type(stats.max) is int

    def test_single_sample(self):
        stats = histogram_of([3])
        assert stats.mean == 3.0
        assert math.isnan(stats.variance)

    @given(
        st.lists(st.lists(st.integers(0, 5000), max_size=40), min_size=1, max_size=5)
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_concatenation(self, shards):
        """Bit for bit: the moments equal ``statistics`` over the samples,
        and merging 1-5 shards gives the whole list's histogram."""
        samples = [value for shard in shards for value in shard]
        whole = histogram_of(samples)
        merged = DelayHistogram()
        for shard in shards:
            merged.merge(histogram_of(shard))
        assert merged.counts == whole.counts
        for stats in (whole, merged):
            assert stats.count == len(samples)
            if samples:
                assert stats.min == min(samples) and stats.max == max(samples)
                assert stats.mean == statistics.fmean(samples)
            else:
                assert math.isnan(stats.mean) and math.isnan(stats.min)
            if len(samples) > 1:
                assert stats.variance == statistics.variance(samples)
                assert stats.std == math.sqrt(statistics.variance(samples))
            else:
                assert math.isnan(stats.variance)


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index(np.array([5, 5, 5, 5])) == pytest.approx(1.0)

    def test_single_user_hogging_is_one_over_k(self):
        assert jain_index(np.array([1, 0, 0, 0])) == pytest.approx(0.25)

    def test_empty_and_zero_are_one(self):
        assert jain_index(np.array([])) == 1.0
        assert jain_index(np.zeros(4)) == 1.0

    def test_monotone_in_imbalance(self):
        balanced = jain_index(np.array([4, 4, 4, 4]))
        skewed = jain_index(np.array([7, 4, 3, 2]))
        assert skewed < balanced


class TestServiceMatrix:
    def test_records_grants(self):
        service = ServiceMatrix(3)
        service.record(np.array([1, -1, 0]))
        service.record(np.array([1, -1, -1]))
        assert service.counts[0, 1] == 2
        assert service.counts[2, 0] == 1
        assert service.slots == 2

    def test_rates(self):
        service = ServiceMatrix(2)
        service.record(np.array([0, 1]))
        service.record(np.array([0, -1]))
        assert service.rates()[0, 0] == pytest.approx(1.0)
        assert service.rates()[1, 1] == pytest.approx(0.5)

    def test_min_pair_rate_with_mask(self):
        service = ServiceMatrix(2)
        service.record(np.array([0, -1]))
        active = np.array([[True, False], [False, False]])
        assert service.min_pair_rate(active) == pytest.approx(1.0)


class TestPercentiles:
    def test_empty_gives_nans(self):
        result = DelayHistogram().percentiles()
        assert all(math.isnan(v) for v in result.values())

    def test_median_of_known_samples(self):
        result = histogram_of(range(1, 102)).percentiles()
        assert result[50.0] == 51.0
