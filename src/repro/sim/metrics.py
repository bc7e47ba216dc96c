"""Fairness statistics for the simulator.

The fairness metrics quantify the Section 3 / Section 7 claims — Jain's
index for proportional fairness, and the per-pair service matrix for the
hard ``b/n^2`` lower-bound check. Latency is accumulated elsewhere, in
one exact :class:`~repro.obs.estimators.DelayHistogram` per switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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

