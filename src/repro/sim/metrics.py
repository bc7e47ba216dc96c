"""Statistics collection for the simulator.

Latency is measured in packet time slots, inclusive of the transmission
slot: a packet forwarded in the slot it arrived has latency 1. The
fairness metrics quantify the Section 3 / Section 7 claims — Jain's
index for proportional fairness, and the per-pair service matrix for the
hard ``b/n^2`` lower-bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class OnlineStats:
    """Streaming mean/variance/min/max (Welford's algorithm).

    Numerically stable over millions of samples, mergeable across
    parallel shards — :mod:`repro.sweep` recombines per-replicate
    simulation statistics with :meth:`merge`.

    Examples
    --------
    >>> stats = OnlineStats()
    >>> for value in [2.0, 4.0, 6.0]:
    ...     stats.add(value)
    >>> stats.count, stats.mean, stats.min, stats.max
    (3, 4.0, 2.0, 6.0)
    >>> stats.variance  # sample variance, ddof=1
    4.0

    A fresh accumulator has no samples, so its moments are NaN and its
    extrema are the identity elements of min/max:

    >>> empty = OnlineStats()
    >>> math.isnan(empty.mean) and math.isnan(empty.variance)
    True
    >>> empty.min, empty.max
    (inf, -inf)
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two disjoint sample streams (Chan et al. parallel form).

        Returns a *new* accumulator equivalent to having streamed both
        inputs' samples through one instance (up to floating-point
        rounding in the merge order): counts add, the mean is the
        count-weighted mean, and the second moments combine through the
        pooled form ``m2 = m2_a + m2_b + delta² · n_a · n_b / n``
        with ``delta = mean_b − mean_a``.

        Empty shards are the identity: merging with a fresh
        ``OnlineStats`` changes nothing, and merging two empty shards
        yields an empty result (count 0, NaN mean/variance, ±inf
        extrema) — NaN never leaks from an empty side into a non-empty
        one.

        Examples
        --------
        >>> left, right, whole = OnlineStats(), OnlineStats(), OnlineStats()
        >>> for value in [1.0, 2.0, 3.0]:
        ...     left.add(value)
        >>> for value in [4.0, 5.0]:
        ...     right.add(value)
        >>> for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
        ...     whole.add(value)
        >>> merged = left.merge(right)
        >>> merged.count, merged.mean, merged.min, merged.max
        (5, 3.0, 1.0, 5.0)
        >>> merged.variance == whole.variance
        True

        >>> solo = OnlineStats()
        >>> solo.add(7.5)
        >>> identity = solo.merge(OnlineStats())
        >>> identity.count, identity.mean, identity.min, identity.max
        (1, 7.5, 7.5, 7.5)
        >>> OnlineStats().merge(OnlineStats()).count
        0
        """
        merged = OnlineStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean if self.count and other.count else 0.0
        merged._mean = (
            (self._mean * self.count + other._mean * other.count) / merged.count
        )
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN with fewer than two samples."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def std(self) -> float:
        variance = self.variance
        return math.sqrt(variance) if variance == variance else math.nan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OnlineStats(count={self.count}, mean={self.mean:.4g})"


def jain_index(allocations: np.ndarray) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/k = maximally unfair.

    ``allocations`` are non-negative service amounts (e.g. packets
    forwarded per flow).

    Examples
    --------
    >>> jain_index([10, 10, 10, 10])
    1.0
    >>> jain_index([1, 0, 0, 0])
    0.25
    """
    x = np.asarray(allocations, dtype=float).ravel()
    if x.size == 0:
        return 1.0
    total = x.sum()
    if total == 0:
        return 1.0
    return float(total * total / (x.size * (x * x).sum()))


@dataclass
class ServiceMatrix:
    """Per-(input, output) grant counter over the measurement window.

    Feeds the fairness analysis: the LCF-RR schedulers must serve every
    continuously backlogged pair at least once per ``n^2`` cycles.
    """

    n: int
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    slots: int = 0

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.zeros((self.n, self.n), dtype=np.int64)

    def record(self, schedule: np.ndarray) -> None:
        """Count one slot's grants (``schedule[i] = j`` or -1)."""
        self.slots += 1
        for i, j in enumerate(schedule):
            if j >= 0:
                self.counts[i, j] += 1

    def rates(self) -> np.ndarray:
        """Per-pair service rate in grants per slot."""
        return self.counts / self.slots if self.slots else self.counts.astype(float)

    def min_pair_rate(self, active: np.ndarray | None = None) -> float:
        """Minimum service rate over (optionally masked) pairs."""
        rates = self.rates()
        if active is not None:
            rates = np.where(active, rates, np.inf)
        return float(rates.min())


def latency_percentiles(
    latencies: np.ndarray, percentiles: tuple[float, ...] = (50.0, 90.0, 99.0)
) -> dict[float, float]:
    """Percentiles of a latency sample array (empty -> NaNs)."""
    if len(latencies) == 0:
        return {p: math.nan for p in percentiles}
    values = np.percentile(latencies, percentiles)
    return {p: float(v) for p, v in zip(percentiles, values)}
