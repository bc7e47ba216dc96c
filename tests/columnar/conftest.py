"""Shared helpers of the columnar equivalence suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.columnar.run as run_mod


@pytest.fixture
def crossover(monkeypatch):
    """Move the columnar crossover for one test: ``crossover(r)`` makes
    blocks of ``r`` or more replicates batch (in this process and in
    forked workers)."""

    def set_to(replicates: int) -> None:
        monkeypatch.setattr(run_mod, "COLUMNAR_MIN_REPLICATES", replicates)

    return set_to


def assert_results_bit_identical(expected, actual, context=""):
    """Field-by-field equality of two SimResults, NaN-tolerant.

    Exact ``==`` on every float on purpose: the columnar engine's
    contract is *bit*-identity with the serial simulator, not closeness.
    """
    assert actual.scheduler == expected.scheduler, context
    assert actual.load == expected.load, context
    assert actual.config == expected.config, context
    for name in ("offered", "forwarded", "dropped", "shed"):
        assert getattr(actual, name) == getattr(expected, name), (context, name)
    for name in (
        "throughput",
        "mean_latency",
        "std_latency",
        "min_latency",
        "max_latency",
    ):
        want, got = getattr(expected, name), getattr(actual, name)
        assert got == want or (math.isnan(want) and math.isnan(got)), (
            context,
            name,
            want,
            got,
        )
    assert set(actual.percentiles) == set(expected.percentiles), context
    for q, want in expected.percentiles.items():
        got = actual.percentiles[q]
        assert got == want or (math.isnan(want) and math.isnan(got)), (context, q)
    assert (actual.service_counts is None) == (expected.service_counts is None), context
    if expected.service_counts is not None:
        assert np.array_equal(actual.service_counts, expected.service_counts), context
