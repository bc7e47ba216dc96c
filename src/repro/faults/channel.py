"""Degraded-mode schedulers for a lossy control channel.

The Section 5 protocol assumes every request/grant/accept message
arrives. :func:`make_lossy_scheduler` builds the scheduler a switch
runs when a :class:`~repro.faults.plan.FaultPlan` drops control
messages:

* ``lcf_dist`` / ``lcf_dist_rr`` get their own protocol with the
  injector attached — :class:`~repro.core.lcf_dist.LCFDistributed` and
  its bitset kernel :class:`~repro.fastpath.lcf_dist.FastLCFDistributed`
  decide each request, grant and accept where it is sent (loss
  semantics in :mod:`repro.core.lcf_dist`), bit-identically;
* every other crossbar scheduler is wrapped in
  :class:`RequestLossFilter`, which thins the request matrix before the
  scheduler runs.

Every fate comes from the same pure
:class:`~repro.faults.injector.FaultInjector` hash keyed by
``(slot, iteration, kind, src, dst)``, so reference and bitset
schedulers agree exactly under loss, as they do on a perfect channel.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import IterativeScheduler, Scheduler
from repro.core.lcf_dist import LCFDistributed, LCFDistributedRR
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.faults.injector import REQUEST, FaultInjector
from repro.types import RequestMatrix, Schedule

__all__ = [
    "RequestLossFilter",
    "FastRequestLossFilter",
    "make_lossy_scheduler",
    "LOSSY_PROTOCOL_NAMES",
]


#: Instrumentation a switch sets on its scheduler; a filter sets it on
#: the scheduler it wraps.
_FORWARDED = frozenset({"record_trace", "decision_tally"})


class RequestLossFilter(Scheduler):
    """Generic degraded mode for schedulers without an explicit
    message protocol (PIM, iSLIP, wavefront, the central LCF family...).

    Models a lossy request channel: each request-matrix entry is
    independently dropped with ``plan.request_loss`` before the wrapped
    scheduler runs (keyed by the same pure hash as the distributed
    protocol, iteration 0). Grant/accept loss rates do not apply — a
    centralized scheduler's grants travel with the crossbar setup, and
    per-iteration messages are internal to the matrix computation.
    """

    def __init__(self, scheduler: Scheduler, injector: FaultInjector):
        super().__init__(scheduler.n)
        self.scheduler = scheduler
        self.injector = injector
        self.name = scheduler.name
        self._cycle = -1

    def reset(self) -> None:
        self.scheduler.reset()
        self._cycle = -1

    def __getattr__(self, attribute):
        # Transparent for instrumentation: record_trace, last_trace,
        # decision_tally, rr_position, weight_kind... resolve on the
        # wrapped scheduler.
        if attribute == "scheduler":
            raise AttributeError(attribute)
        return getattr(self.scheduler, attribute)

    def __setattr__(self, attribute, value):
        if attribute in _FORWARDED and "scheduler" in self.__dict__:
            setattr(self.scheduler, attribute, value)
            return
        super().__setattr__(attribute, value)

    def _thin(self, matrix: np.ndarray) -> np.ndarray:
        rate = self.injector.plan.request_loss
        if rate <= 0.0:
            return matrix
        slot = self._cycle
        for i, j in zip(*np.nonzero(matrix)):
            if not self.injector.message_survives(slot, 0, REQUEST, int(i), int(j)):
                matrix[i, j] = 0
        return matrix

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        return self.scheduler._schedule(self._thin(requests))

    def schedule(self, requests: RequestMatrix) -> Schedule:
        self._cycle += 1
        return super().schedule(requests)

    def schedule_weighted(self, weights: np.ndarray) -> Schedule:
        self._cycle += 1
        return self.scheduler.schedule_weighted(self._thin(weights.copy()))


class FastRequestLossFilter(RequestLossFilter):
    """:class:`RequestLossFilter` around a bitmask kernel.

    Defines ``schedule_masks`` *on the class* (the crossbar's fastpath
    capability probe is deliberately type-level, so the plain filter's
    attribute forwarding can never bypass the loss model) and thins the
    request bitmasks with the same pure per-crosspoint hash the matrix
    path uses — fast and reference degraded modes stay bit-identical.
    """

    def schedule_masks(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        self._cycle += 1
        rate = self.injector.plan.request_loss
        if rate > 0.0:
            slot = self._cycle
            survives = self.injector.message_survives
            thinned = []
            for i, mask in enumerate(rows):
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    if not survives(slot, 0, REQUEST, i, low.bit_length() - 1):
                        mask ^= low
                thinned.append(mask)
            rows = thinned
            cols = None  # stale after thinning; the kernel re-derives
        return self.scheduler.schedule_masks(rows, cols)


#: Scheduler names whose request/grant/accept protocol is modelled at
#: per-message granularity: (reference class, bitset kernel class).
_PROTOCOLS = {
    "lcf_dist": (LCFDistributed, FastLCFDistributed),
    "lcf_dist_rr": (LCFDistributedRR, FastLCFDistributedRR),
}
LOSSY_PROTOCOL_NAMES = frozenset(_PROTOCOLS)


def make_lossy_scheduler(
    name: str,
    n: int,
    injector: FaultInjector,
    iterations: int = IterativeScheduler.DEFAULT_ITERATIONS,
    seed: int = 0,
) -> Scheduler:
    """Registry-compatible factory for degraded-mode schedulers.

    ``lcf_dist`` / ``lcf_dist_rr`` run their own protocol over the
    lossy channel; every other crossbar scheduler is wrapped in
    :class:`RequestLossFilter` so the whole registry can be swept along
    a loss axis without crashing or silently ignoring the plan.

    Names with a :mod:`repro.fastpath` kernel get it (the bitset
    protocol, or the kernel inside :class:`FastRequestLossFilter`) —
    bit-identical results, bitmask hot path; every other name gets the
    reference scheduler.
    """
    from repro.fastpath.registry import make_fast_scheduler, uses_fast_kernel

    fast = uses_fast_kernel(name)
    if name in _PROTOCOLS:
        reference, kernel = _PROTOCOLS[name]
        return (kernel if fast else reference)(n, iterations, injector)
    if fast:
        return FastRequestLossFilter(
            make_fast_scheduler(name, n, iterations=iterations, seed=seed),
            injector,
        )
    from repro.baselines.registry import make_scheduler

    return RequestLossFilter(
        make_scheduler(name, n, iterations=iterations, seed=seed), injector
    )
