"""Online estimators: per-pair EWMA rates and an exact delay histogram.

The serving layer (:mod:`repro.obs.serve`) exposes *live* values while a
simulation is still running, which rules out anything that stores
samples. Two estimators cover what an operator watching a long soak run
actually needs:

* :class:`RateEstimator` — an exponentially weighted moving average of
  the per-slot service rate for every (input, output) pair, the online
  counterpart of the post-hoc :class:`~repro.sim.metrics.ServiceMatrix`.
  Updates are *lazy*: a pair's value decays only when it is touched or
  read, so a slot's cost is O(forwards), never O(n²). During a port
  outage the affected row/column visibly decays toward zero and climbs
  back as the switch heals — the signal the ROADMAP's "watch a faulted
  switch heal" item asks for.
* :class:`DelayHistogram` — packet delays are small non-negative
  integers, so one count per delay value holds the whole distribution
  in O(max delay) memory: O(1) per observation, mergeable across runs,
  and every summary of it is *exact* — mean and variance from integer
  sums, percentiles equal to ``np.percentile`` over the samples
  (property-tested in ``tests/obs/test_estimators.py``). It is also
  every switch model's latency accumulator, and a
  :class:`~repro.sim.simulator.SimResult` carries one as ``delays``.

Both are pure Python/numpy state machines with no export opinion; the
switch wires them into its :class:`~repro.obs.metrics.MetricsRegistry`
as collector-refreshed gauges (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Iterable

import numpy as np

__all__ = ["RateEstimator", "DelayHistogram"]


#: Decay gaps (slots since a pair's last event) served from a table.
_DECAY_TABLE_GAPS = 1024


@functools.cache
def _decay_table(alpha: float) -> tuple[float, ...]:
    """``(1 - alpha) ** gap`` for every ``gap < _DECAY_TABLE_GAPS``."""
    powers = (1.0 - alpha) ** np.arange(_DECAY_TABLE_GAPS, dtype=np.int64)
    return tuple(powers.tolist())


class RateEstimator:
    """Per-(input, output) EWMA of events per slot, with lazy decay.

    The underlying recurrence is the standard per-slot EWMA

        ``r[t] = (1 - alpha) * r[t-1] + alpha * x[t]``

    where ``x[t]`` is the number of events the pair saw in slot ``t``
    (0 or 1 for crossbar forwards). Slots with no events only multiply
    by ``(1 - alpha)``, so they are applied in one power at the next
    touch or read instead of one at a time — ``observe`` and ``rate``
    are O(1) and a full :meth:`matrix` read is one vectorised
    expression. The estimate converges to the pair's true service rate
    (events/slot) with time constant ``~1/alpha`` slots.

    Per-pair state lives in flat Python lists (index ``input * n +
    output``) and decay factors for short gaps come from a per-alpha
    table: ``observe`` runs once per forwarded packet, and a list read
    costs a fraction of numpy scalar indexing and ``pow``. The table is
    computed with numpy's own power, so every value is bit-identical to
    evaluating ``(1 - alpha) ** gap`` in numpy.
    """

    def __init__(self, n: int, alpha: float = 0.02):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.n = n
        self.alpha = alpha
        self._value = [0.0] * (n * n)
        self._slot = [0] * (n * n)
        self.events = 0

    def reset(self) -> None:
        self._value = [0.0] * (self.n * self.n)
        self._slot = [0] * (self.n * self.n)
        self.events = 0

    def _decay(self, gap: int) -> float:
        """``(1 - alpha) ** gap``, evaluated as numpy evaluates it."""
        table = _decay_table(self.alpha)
        if gap < len(table):
            return table[gap]
        return float((1.0 - self.alpha) ** np.int64(gap))

    def observe(self, input: int, output: int, slot: int) -> None:
        """Record one event for a pair at ``slot`` (non-decreasing)."""
        pair = input * self.n + output
        decay = self._decay(slot - self._slot[pair])
        self._value[pair] = self._value[pair] * decay + self.alpha
        self._slot[pair] = slot
        self.events += 1

    def rate(self, input: int, output: int, at_slot: int) -> float:
        """The pair's estimated events/slot as of ``at_slot``."""
        pair = input * self.n + output
        return self._value[pair] * self._decay(at_slot - self._slot[pair])

    def matrix(self, at_slot: int) -> np.ndarray:
        """The full ``(n, n)`` rate matrix decayed to ``at_slot``."""
        shape = (self.n, self.n)
        value = np.array(self._value, dtype=np.float64).reshape(shape)
        slots = np.array(self._slot, dtype=np.int64).reshape(shape)
        return value * (1.0 - self.alpha) ** (at_slot - slots)

    def input_rates(self, at_slot: int) -> np.ndarray:
        """Per-input total service rate (row sums) at ``at_slot``."""
        return self.matrix(at_slot).sum(axis=1)

    def output_rates(self, at_slot: int) -> np.ndarray:
        """Per-output total service rate (column sums) at ``at_slot``."""
        return self.matrix(at_slot).sum(axis=0)

    def total_rate(self, at_slot: int) -> float:
        """Estimated switch-wide forwards per slot at ``at_slot``."""
        return float(self.matrix(at_slot).sum())

    def top_pairs(self, at_slot: int, k: int = 3) -> list[tuple[int, int, float]]:
        """The ``k`` hottest (input, output, rate) pairs, hottest first."""
        matrix = self.matrix(at_slot)
        flat = np.argsort(matrix, axis=None)[::-1][:k]
        return [
            (int(index // self.n), int(index % self.n), float(matrix.flat[index]))
            for index in flat
            if matrix.flat[index] > 0.0
        ]


class DelayHistogram:
    """Exact distribution of non-negative integer samples (packet delays).

    ``counts[v]`` is the number of samples equal to ``v``; the list grows
    on demand, so memory is O(largest sample), never O(samples), and an
    observation is one list increment. Two histograms :meth:`merge` by
    adding counts — the same distribution as one histogram fed both
    streams, in any order.

    Every summary is read off the counts, exactly. :attr:`mean` and
    :attr:`variance` come from the integer sums ``S = Σd`` and
    ``Q = Σd²`` with one correctly rounded division each — ``S / N`` and
    ``(N·Q − S²) / (N·(N − 1))`` (sample variance, ddof=1) — so they
    equal ``statistics.fmean`` and ``statistics.variance`` of the
    samples bit for bit. :attr:`min` and :attr:`max` are ints.
    :meth:`percentiles` reads order statistics off the cumulative counts
    with ``np.percentile``'s default ("linear") interpolation, so the
    result equals ``np.percentile`` over the samples themselves. Every
    summary of an empty histogram is NaN (and the variance of a single
    sample).

    >>> histogram = DelayHistogram()
    >>> for delay in (2, 4, 6):
    ...     histogram.add(delay)
    >>> histogram.count, histogram.mean, histogram.variance
    (3, 4.0, 4.0)
    >>> histogram.min, histogram.max
    (2, 6)
    """

    DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)

    def __init__(self, counts: Iterable[int] = ()) -> None:
        self.counts: list[int] = list(counts)

    @property
    def count(self) -> int:
        """Samples observed so far."""
        return sum(self.counts)

    def add(self, value: int) -> None:
        counts = self.counts
        if 0 <= value < len(counts):
            counts[value] += 1
            return
        if value < 0:
            raise ValueError(f"delays are non-negative, got {value}")
        counts.extend([0] * (value + 1 - len(counts)))
        counts[value] += 1

    def merge(self, other: "DelayHistogram") -> None:
        """Add another histogram's samples to this one."""
        counts = self.counts
        if len(other.counts) > len(counts):
            counts.extend([0] * (len(other.counts) - len(counts)))
        for value, times in enumerate(other.counts):
            counts[value] += times

    def _sums(self) -> tuple[int, int, int]:
        """``(N, S, Q)``: the sample count, ``Σd`` and ``Σd²``."""
        n = s = q = 0
        for value, times in enumerate(self.counts):
            n += times
            s += value * times
            q += value * value * times
        return n, s, q

    @property
    def mean(self) -> float:
        """``S / N``; NaN when empty."""
        n, s, _ = self._sums()
        return s / n if n else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN with fewer than two samples."""
        n, s, q = self._sums()
        return (n * q - s * s) / (n * (n - 1)) if n > 1 else math.nan

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> int | float:
        """The smallest sample; NaN when empty."""
        return next((v for v, times in enumerate(self.counts) if times), math.nan)

    @property
    def max(self) -> int | float:
        """The largest sample; NaN when empty."""
        counts = self.counts
        return next((v for v in reversed(range(len(counts))) if counts[v]), math.nan)

    def percentiles(
        self, percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """``{p: value}`` for each percentile ``p`` in [0, 100]; NaN when
        empty — the same values ``np.percentile`` returns for the
        samples."""
        cumulative = list(itertools.accumulate(self.counts))
        total = cumulative[-1] if cumulative else 0
        if not total:
            return {p: math.nan for p in percentiles}
        out = {}
        for p in percentiles:
            # np.percentile's linear method: the virtual index (N-1)*q
            # falls between the order statistics at floor and floor+1,
            # lerped as numpy's _lerp does (from the upper end once the
            # weight reaches 0.5). The k-th smallest sample is the first
            # value whose cumulative count exceeds k.
            virtual = (total - 1) * (p / 100)
            low = math.floor(virtual)
            gamma = virtual - low
            a = bisect.bisect_right(cumulative, low)
            b = bisect.bisect_right(cumulative, min(low + 1, total - 1))
            diff = b - a
            out[p] = float(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
        return out

    def summary(self) -> str:
        return "  ".join(
            f"p{p:g}={value:.2f}" for p, value in self.percentiles().items()
        )
