"""Matching-quality probe: measure achieved versus maximum matching.

The paper's throughput argument is that LCF's fewest-choices-first order
produces *larger matchings* than PIM/iSLIP. The probe makes that claim
a per-run number: it wraps any request-matrix scheduler, computes the
maximum matching size (Hopcroft–Karp, from :mod:`repro.matching`) on
every request matrix *before* delegating, and accumulates both totals.
``efficiency`` is then achieved/maximum over the run — 1.0 means the
scheduler found a maximum matching every single slot.

The probe is transparent: the inner scheduler computes exactly the
schedule it would have computed unwrapped, and decision-trace recording
(``record_trace`` / ``last_trace``) and the ``decision_tally`` pass
through so switch-level telemetry keeps working.

Hopcroft–Karp results are memoised per unique request matrix (keyed on
the :func:`repro.fastpath.pack_rows` bitmask tuple): a steady-state
switch revisits the same request pattern for many consecutive slots, so
the cache turns the dominant per-slot cost of a probed run into a dict
lookup. ``cache_hits`` / ``cache_misses`` expose the effectiveness; the
cache is bounded by ``max_cache_entries`` and cleared wholesale on
overflow (matrices seen after a clear are simply recomputed).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Scheduler
from repro.fastpath.bitops import pack_rows
from repro.matching.hopcroft_karp import maximum_matching_size
from repro.types import NO_GRANT, RequestMatrix, Schedule, as_request_matrix


class MatchingQualityProbe(Scheduler):
    """Wrap a scheduler and score every matching against the maximum."""

    #: Default bound on distinct request matrices memoised at once.
    DEFAULT_MAX_CACHE_ENTRIES = 1 << 16

    def __init__(
        self, inner: Scheduler, max_cache_entries: int = DEFAULT_MAX_CACHE_ENTRIES
    ):
        if getattr(inner, "weight_kind", None) is not None:
            raise ValueError(
                f"{inner.name} schedules on weights, not request matrices; "
                "the matching probe only wraps request-matrix schedulers"
            )
        if max_cache_entries < 1:
            raise ValueError(
                f"max_cache_entries must be >= 1, got {max_cache_entries}"
            )
        super().__init__(inner.n)
        self.inner = inner
        self.name = inner.name
        self.slots = 0
        self.achieved_total = 0
        self.maximum_total = 0
        self.max_cache_entries = max_cache_entries
        self.cache_hits = 0
        self.cache_misses = 0
        self._hk_cache: dict[tuple[int, ...], int] = {}

    def _maximum(self, matrix: np.ndarray) -> int:
        key = tuple(pack_rows(matrix))
        cached = self._hk_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        size = maximum_matching_size(matrix)
        if len(self._hk_cache) >= self.max_cache_entries:
            self._hk_cache.clear()
        self._hk_cache[key] = size
        return size

    # -- delegation ----------------------------------------------------

    def schedule(self, requests: RequestMatrix) -> Schedule:
        matrix = as_request_matrix(requests)
        self.maximum_total += self._maximum(matrix)
        schedule = self.inner.schedule(matrix)
        self.achieved_total += int(np.count_nonzero(schedule != NO_GRANT))
        self.slots += 1
        return schedule

    def _schedule(self, requests: RequestMatrix) -> Schedule:  # pragma: no cover
        # ``schedule`` is fully overridden; the abstract hook only exists
        # to satisfy the base class.
        return self.inner._schedule(requests)

    def reset(self) -> None:
        self.inner.reset()
        self.slots = 0
        self.achieved_total = 0
        self.maximum_total = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._hk_cache.clear()

    # Decision-trace recording and the decision tally pass through to
    # the wrapped scheduler.

    @property
    def record_trace(self) -> bool:
        return getattr(self.inner, "record_trace", False)

    @record_trace.setter
    def record_trace(self, value: bool) -> None:
        if hasattr(self.inner, "record_trace"):
            self.inner.record_trace = value

    @property
    def last_trace(self) -> list:
        return getattr(self.inner, "last_trace", [])

    @property
    def decision_tally(self):
        return getattr(self.inner, "decision_tally", None)

    @decision_tally.setter
    def decision_tally(self, value) -> None:
        if hasattr(self.inner, "decision_tally"):
            self.inner.decision_tally = value

    @property
    def rr_position(self) -> tuple[int, int] | None:
        """The distributed RR overlay position, when the inner scheduler
        has one (``None`` otherwise) — the switch telemetry reads it."""
        return getattr(self.inner, "rr_position", None)

    # -- scores --------------------------------------------------------

    @property
    def mean_matching(self) -> float:
        """Mean achieved matching size per scheduled slot."""
        return self.achieved_total / self.slots if self.slots else float("nan")

    @property
    def mean_maximum(self) -> float:
        """Mean maximum-matching size per scheduled slot."""
        return self.maximum_total / self.slots if self.slots else float("nan")

    @property
    def efficiency(self) -> float:
        """Achieved over maximum matching, pooled over the run (<= 1.0)."""
        return (
            self.achieved_total / self.maximum_total
            if self.maximum_total
            else float("nan")
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatchingQualityProbe({self.inner!r})"
