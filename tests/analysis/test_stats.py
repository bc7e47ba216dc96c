"""Statistical helpers."""

import math

import numpy as np
import pytest

from repro.analysis.stats import coefficient_of_variation, geometric_mean, mean_ci, t_quantile


class TestMeanCI:
    def test_empty_is_nan(self):
        mean, half = mean_ci([])
        assert math.isnan(mean) and half == 0.0

    def test_single_sample_has_zero_width(self):
        mean, half = mean_ci([4.2])
        assert mean == 4.2 and half == 0.0

    def test_interval_contains_true_mean_usually(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(100):
            samples = rng.normal(10.0, 3.0, size=30)
            mean, half = mean_ci(samples, confidence=0.95)
            if abs(mean - 10.0) <= half:
                hits += 1
        assert hits >= 85  # ~95 expected

    def test_width_shrinks_with_samples(self):
        rng = np.random.default_rng(1)
        _, narrow = mean_ci(rng.normal(0, 1, 1000))
        _, wide = mean_ci(rng.normal(0, 1, 10))
        assert narrow < wide


#: Two-sided t quantiles as tables print them: (df, confidence, quantile).
TEXTBOOK_QUANTILES = [
    (1, 0.95, 12.706204736174694),  # tan(0.475 pi)
    (4, 0.95, 2.7764451051977934),
    (29, 0.95, 2.045229642132703),
    (1, 0.90, 6.313751514675037),
    (7, 0.99, 3.4994832973504924),
]


class TestTQuantile:
    @pytest.mark.parametrize("df, confidence, quantile", TEXTBOOK_QUANTILES)
    def test_textbook_values(self, df, confidence, quantile):
        assert t_quantile(confidence, df) == pytest.approx(quantile, rel=1e-9)

    def test_two_samples_use_the_one_df_quantile(self):
        _, half = mean_ci([1.0, 2.0])
        assert half == pytest.approx(12.706204736174694 * 0.5, rel=1e-9)

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        large = np.unique(np.logspace(3, 6, 31).round().astype(int))
        for df in [*range(1, 201), *large.tolist()]:
            for confidence in (0.5, 0.9, 0.95, 0.99, 0.999):
                expected = float(stats.t.ppf((1 + confidence) / 2, df))
                got = t_quantile(confidence, df)
                assert got == pytest.approx(expected, rel=1e-8), (df, confidence)

    @pytest.mark.parametrize("confidence", [0, 1, 1.5, -0.1])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            t_quantile(confidence, 3)
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1.0, 2.0, 3.0], confidence=confidence)


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empty_is_nan(self):
        assert math.isnan(geometric_mean([]))


class TestCoV:
    def test_constant_series_is_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_zero_mean_is_nan(self):
        assert math.isnan(coefficient_of_variation([-1, 1]))
