"""Scheduler interface shared by the LCF family and all baselines.

A scheduler is a *stateful* object: the round-robin pointers, priority
chains, and random generators that implement fairness all persist across
scheduling cycles, exactly as the registers of the hardware
implementation do (Section 4.2). ``schedule`` consumes a request matrix
and returns a conflict-free schedule; ``reset`` restores the
power-on state.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.matching.verify import is_valid_schedule
from repro.types import RequestMatrix, Schedule, as_request_matrix


class Scheduler(abc.ABC):
    """Base class for crossbar schedulers over an ``n x n`` request matrix."""

    #: Registry name, e.g. ``"lcf_central"``; set by subclasses.
    name: str = "scheduler"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"switch must have at least 1 port, got n={n}")
        self.n = n

    @abc.abstractmethod
    def _schedule(self, requests: RequestMatrix) -> Schedule:
        """Compute one scheduling cycle. ``requests`` may be mutated."""

    def schedule(self, requests: RequestMatrix) -> Schedule:
        """Compute a conflict-free schedule for one time slot.

        The input matrix is copied, so callers may reuse their buffer.
        Scheduler state (round-robin positions, RNG) advances by exactly
        one scheduling cycle.
        """
        matrix = as_request_matrix(requests)
        if matrix.shape[0] != self.n:
            raise ValueError(
                f"{self.name} is configured for n={self.n}, got a "
                f"{matrix.shape[0]}-port request matrix"
            )
        return self._schedule(matrix.copy())

    def reset(self) -> None:
        """Restore the power-on state. Subclasses with state must override."""

    def schedule_checked(self, requests: RequestMatrix) -> Schedule:
        """Like :meth:`schedule` but asserts validity — used in tests/debug."""
        matrix = as_request_matrix(requests)
        schedule = self.schedule(matrix)
        if not is_valid_schedule(matrix, schedule):
            raise AssertionError(
                f"{self.name} produced an invalid schedule {schedule.tolist()} "
                f"for requests\n{matrix.astype(int)}"
            )
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class DecisionTally:
    """Per-value counts of an LCF scheduler's grants, added where they
    are decided.

    ``choices[v]`` counts grants whose winner had ``v`` choices left —
    the central NRQ, or the ``nrq`` a distributed initiator sent with
    the request it accepted. ``depths[d]`` counts central grants that
    went ``d`` places down the rotating tie-break chain from the
    round-robin row. ``overrides`` counts round-robin pre-emptions: the
    central steps the RR position won, and the distributed overlay's
    pre-matches.

    A switch attaches one to its scheduler's ``decision_tally`` when it
    has a metrics registry, and drains it once per block of slots. It
    is wiring, not run state: checkpoints never capture it, and a
    resumed switch attaches its own.
    """

    __slots__ = ("choices", "depths", "overrides")

    def __init__(self, n: int):
        self.choices = [0] * (n + 1)
        self.depths = [0] * n
        self.overrides = 0

    def drain(self) -> tuple[list[int], list[int], int]:
        """The counts so far, ``(choices, depths, overrides)``; the tally
        starts again from zero."""
        counts = self.choices, self.depths, self.overrides
        self.choices = [0] * len(counts[0])
        self.depths = [0] * len(counts[1])
        self.overrides = 0
        return counts


class IterativeScheduler(Scheduler):
    """Base class for iterative (PIM-style) schedulers.

    The paper simulates all iterative schedulers (``pim``, ``lcf_dist``,
    ``lcf_dist_rr``) with **4 iterations** (Section 6.3); this is the
    package-wide default.
    """

    DEFAULT_ITERATIONS = 4

    def __init__(self, n: int, iterations: int = DEFAULT_ITERATIONS):
        super().__init__(n)
        if iterations < 1:
            raise ValueError(f"need at least one iteration, got {iterations}")
        self.iterations = iterations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, iterations={self.iterations})"


_INT64_MAX = np.iinfo(np.int64).max
# This helper runs ~n times per scheduling cycle across every scheduler
# in the package (profiling: the hottest function in a Figure 12 sweep),
# so the per-size index vector is cached instead of rebuilt per call.
_ARANGE_CACHE: dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    indices = _ARANGE_CACHE.get(n)
    if indices is None:
        indices = np.arange(n)
        _ARANGE_CACHE[n] = indices
    return indices


def rotating_argmin(
    keys: np.ndarray, candidates: np.ndarray, start: int
) -> int:
    """Index of the minimum of ``keys`` over ``candidates``, breaking ties by
    the rotating chain that starts at ``start``.

    This is the paper's tie-break rule: "If there are several initiators
    with the highest priority, a rotating priority chain starting at the
    round-robin position determines the request to be granted"
    (Section 3). ``candidates`` is a boolean mask; at least one entry
    must be set.
    """
    n = len(keys)
    chain_pos = (_arange(n) - start) % n
    # keys <= n and chain_pos < n, so this composite key orders by key
    # first and chain position second with no overflow ambiguity.
    composite = np.where(candidates, keys * n + chain_pos, _INT64_MAX)
    winner = int(np.argmin(composite))
    if not candidates[winner]:
        raise ValueError("rotating_argmin called with no candidates")
    return winner
