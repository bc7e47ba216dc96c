"""The distributed Least Choice First scheduler (paper Section 5).

An iterative request/grant/accept protocol in the style of PIM
(Anderson et al.), but with the random selections replaced by
least-choice priorities:

* **Request** — every unmatched initiator sends a request to every
  unmatched target it has a packet for, *accompanied by the number of
  requests it is sending* (``nrq``).
* **Grant** — every unmatched target that received requests grants the
  one with the lowest ``nrq``; ties are broken round-robin. The grant is
  *accompanied by the number of requests the target received* (``ngt``).
* **Accept** — every unmatched initiator that received grants accepts
  the one with the lowest ``ngt``; ties are broken round-robin.

"During an iteration, only unmatched initiators and targets are
considered" — so both priority counts are over the *remaining* bipartite
subgraph, which is what makes this the distributed analogue of the
central scheduler's recomputed NRQ column.

The paper does not pin down the round-robin selection inside grant and
accept; we use per-port pointers that advance past the matched partner
when a match commits (the same discipline iSLIP uses), which keeps ties
rotating without global state. The ``lcf_dist_rr`` variant adds the
Section 5 fairness overlay: one request-matrix element per scheduling
cycle is the round-robin position and is matched before the iterations
begin, visiting every position once per ``n^2`` cycles.

Both schedulers optionally play the protocol over a lossy control
channel: given an ``injector`` (a
:class:`~repro.faults.injector.FaultInjector`), every request, grant
and accept is a message whose fate is decided where the message is
sent, keyed by ``(cycle, iteration, kind, src, dst)``:

* a lost **request** never reaches its target — the target grants
  among the requests it *did* receive;
* a lost **grant** is treated by the initiator as no-grant;
* a lost **accept** aborts the match — neither side commits, pointers
  do not advance, and the initiator retries in the next iteration (on
  the bus interconnect an accept is observed by everyone or by no one,
  so the two sides can never disagree about a match);
* the ``nrq`` a request carries counts the requests the initiator
  *sent*, which may exceed what was delivered — stale counts skew
  priorities, never correctness.

Every schedule is still a valid matching over the offered requests, and
total loss just yields an empty schedule. Cycles are numbered by a
counter that advances once per ``schedule()`` call and restarts with
``reset()`` — aligned with the simulation slot when the switch steps
from slot 0, which is what :func:`repro.sim.simulator.run_simulation`
does. Without an injector the channel is perfect and no message is
looked at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.base import DecisionTally, IterativeScheduler, rotating_argmin
from repro.types import NO_GRANT, RequestMatrix, Schedule, empty_schedule

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

#: Control-message kinds; the fault injector's loss hash keys on them.
REQUEST, GRANT, ACCEPT = 1, 2, 3


@dataclass
class IterationTrace:
    """Record of one request/grant/accept iteration (for the Figure 9
    worked example and the example scripts).

    ``requests`` and ``ngt`` describe the requests targets *received*;
    ``nrq`` the counts initiators *sent* with them. The two differ only
    under request loss."""

    requests: np.ndarray
    nrq: np.ndarray
    grants: np.ndarray
    ngt: np.ndarray
    accepts: list[tuple[int, int]] = field(default_factory=list)


class LCFDistributed(IterativeScheduler):
    """Distributed LCF (``lcf_dist`` in Figure 12). Default 4 iterations,
    matching the Section 6.3 simulation setup; ``injector`` plays the
    protocol over a lossy control channel (see the module docstring)."""

    name = "lcf_dist"

    #: Set by the switch that observes this scheduler, never restored
    #: from a checkpoint (``repro.checkpoint.state``).
    _restore_keeps = ("record_trace",)

    def __init__(
        self,
        n: int,
        iterations: int = IterativeScheduler.DEFAULT_ITERATIONS,
        injector: FaultInjector | None = None,
    ):
        super().__init__(n, iterations)
        self._grant_ptr = np.zeros(n, dtype=np.int64)  # per output
        self._accept_ptr = np.zeros(n, dtype=np.int64)  # per input
        #: When True, :attr:`last_trace` records every iteration.
        self.record_trace = False
        self.last_trace: list[IterationTrace] = []
        #: When set, every accept adds the initiator's ``nrq`` to this
        #: :class:`~repro.core.base.DecisionTally`, and the RR overlay's
        #: pre-match an override.
        self.decision_tally: DecisionTally | None = None
        #: Message-loss channel; ``None`` is a perfect channel.
        self.injector = injector
        # Loss-hash coordinates of the message being decided.
        self._cycle = -1
        self._iteration = 0

    def reset(self) -> None:
        self._grant_ptr[:] = 0
        self._accept_ptr[:] = 0
        self.last_trace = []
        self._cycle = -1
        self._iteration = 0

    @property
    def pointers(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (grant, accept) pointer arrays, for inspection."""
        return (
            np.array(self._grant_ptr, dtype=np.int64),
            np.array(self._accept_ptr, dtype=np.int64),
        )

    def _pre_iterations(
        self, requests: RequestMatrix, schedule: Schedule, out_matched: np.ndarray
    ) -> None:
        """Hook for the round-robin overlay (no-op in the pure scheduler)."""

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        schedule = empty_schedule(self.n)
        out_matched = np.zeros(self.n, dtype=bool)
        if self.record_trace:
            self.last_trace = []
        if self.injector is not None:
            self._cycle += 1
            self._iteration = 0
        self._pre_iterations(requests, schedule, out_matched)
        tally = self.decision_tally
        if tally is not None and out_matched.any():
            # The RR overlay pre-matched: one override, unless a lossy
            # cycle has no other request live — such a cycle records no
            # iteration, and a cycle without a record counts none.
            live = requests[schedule == NO_GRANT][:, ~out_matched]
            tally.overrides += self.injector is None or bool(live.any())
        for _ in range(self.iterations):
            if not self._iterate(requests, schedule, out_matched):
                break  # converged: no request is left to send
        return schedule

    def _iterate(
        self, requests: RequestMatrix, schedule: Schedule, out_matched: np.ndarray
    ) -> bool:
        """One request/grant/accept round; False once no request is
        live. On a perfect channel a live request always yields a match,
        so that is also "no match is possible"; a lossy channel keeps
        iterating while requests are sent, since a later round may still
        get through."""
        n = self.n
        injector = self.injector
        tally = self.decision_tally
        in_unmatched = schedule == NO_GRANT

        # Request step: unmatched initiators -> unmatched targets. The
        # sender counts what it sends (nrq); delivery decides what each
        # target counts (ngt) and grants among.
        live = requests & in_unmatched[:, np.newaxis] & ~out_matched[np.newaxis, :]
        nrq = live.sum(axis=1)
        delivered = live
        if injector is not None:
            slot, iteration = self._cycle, self._iteration
            self._iteration += 1
            if not nrq.any():
                return False  # converged; no lossy trace
            if injector.plan.request_loss > 0.0:
                delivered = live.copy()
                for i, j in zip(*np.nonzero(live)):
                    if not injector.message_survives(
                        slot, iteration, REQUEST, int(i), int(j)
                    ):
                        delivered[i, j] = False
        ngt = delivered.sum(axis=0)

        # Grant step: each target grants its least-choice requester.
        grants = np.zeros((n, n), dtype=bool)
        for j in np.flatnonzero(ngt):
            winner = rotating_argmin(nrq, delivered[:, j], int(self._grant_ptr[j]))
            if injector is None or injector.message_survives(
                slot, iteration, GRANT, int(j), winner
            ):
                grants[winner, j] = True

        # Accept step: each initiator accepts the grant from the target
        # with the fewest received requests. A lost accept commits
        # nowhere, so the pointers stay put.
        trace = (
            IterationTrace(delivered.copy(), nrq.copy(), grants.copy(), ngt.copy())
            if self.record_trace
            else None
        )
        for i in range(n):
            offered = grants[i]
            if not offered.any():
                continue
            j = rotating_argmin(ngt, offered, int(self._accept_ptr[i]))
            if injector is not None and not injector.message_survives(
                slot, iteration, ACCEPT, i, j
            ):
                continue
            schedule[i] = j
            out_matched[j] = True
            self._grant_ptr[j] = (i + 1) % n
            self._accept_ptr[i] = (j + 1) % n
            if trace is not None:
                trace.accepts.append((i, j))
            if tally is not None:
                tally.choices[nrq[i]] += 1
        if trace is not None:
            self.last_trace.append(trace)
        return bool(nrq.any())


class LCFDistributedRR(LCFDistributed):
    """Distributed LCF with the round-robin overlay (``lcf_dist_rr``).

    "For every scheduling cycle, one element of the request matrix ... is
    the round-robin position that is given the highest priority in that
    it is scheduled before regular LCF scheduling takes place"
    (Section 5). The position walks the matrix column-major-by-row the
    same way the central diagonal start does: ``i := (i+1) mod n; if
    i = 0 then j := (j+1) mod n``.
    """

    name = "lcf_dist_rr"

    def __init__(
        self,
        n: int,
        iterations: int = IterativeScheduler.DEFAULT_ITERATIONS,
        injector: FaultInjector | None = None,
    ):
        super().__init__(n, iterations, injector)
        self._rr_i = 0
        self._rr_j = 0

    @property
    def rr_position(self) -> tuple[int, int]:
        """The request-matrix element currently holding top priority."""
        return self._rr_i, self._rr_j

    def set_rr_position(self, i: int, j: int) -> None:
        """Force the round-robin position (paper-example replays)."""
        self._rr_i = i % self.n
        self._rr_j = j % self.n

    def reset(self) -> None:
        super().reset()
        self._rr_i = 0
        self._rr_j = 0

    def _pre_iterations(
        self, requests: RequestMatrix, schedule: Schedule, out_matched: np.ndarray
    ) -> None:
        if requests[self._rr_i, self._rr_j]:
            schedule[self._rr_i] = self._rr_j
            out_matched[self._rr_j] = True

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        schedule = super()._schedule(requests)
        self._rr_i = (self._rr_i + 1) % self.n
        if self._rr_i == 0:
            self._rr_j = (self._rr_j + 1) % self.n
        return schedule
