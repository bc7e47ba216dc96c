"""The central Least Choice First scheduler (paper Sections 3 and 4).

The scheduler allocates the ``n`` output ports sequentially. For each
output it grants the requesting input with the *fewest outstanding
requests* — the input with the least choice — so that inputs with many
choices remain available for the outputs scheduled later, maximising the
matching size. Ties are broken by a rotating priority chain, and a
rotating round-robin diagonal can pre-empt the LCF rule to provide the
hard ``b/n^2`` fairness bound (Figure 2 pseudocode).

The implementation below mirrors the Figure 2 pseudocode with the inner
per-output search vectorised; the semantics are identical:

* the output scheduled at step ``res`` is ``(J + res) mod n``;
* its round-robin position is input ``(I + res) mod n`` (the diagonal);
* ``nrq`` counts, for every input, the requests for outputs *not yet
  scheduled this cycle*, and is re-derived after every grant;
* after the cycle, ``I := (I+1) mod n`` and, when ``I`` wraps,
  ``J := (J+1) mod n``, so every matrix position is the round-robin
  position exactly once every ``n^2`` cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.base import DecisionTally, Scheduler, rotating_argmin
from repro.types import NO_GRANT, RequestMatrix, Schedule, empty_schedule


@dataclass
class StepTrace:
    """Record of one per-output allocation step (a Figure 3 panel).

    ``nrq_before`` is the NRQ column as it stood when the output was
    scheduled — the paper's panels show exactly this recalculated
    priority state.
    """

    output: int
    rr_row: int
    nrq_before: np.ndarray
    granted: int  # input index or NO_GRANT
    rr_won: bool


class RRCoverage(enum.Enum):
    """How much of the request matrix the round-robin overlay covers per cycle.

    Section 3: "Variations of the round-robin scheduler are possible in
    that a single position, a row or column are covered every scheduling
    cycle"; the guaranteed bandwidth fraction ranges from 0 (pure LCF)
    through ``b/n^2`` (single position or diagonal) up to ``b/n`` (the
    whole diagonal granted before LCF runs).
    """

    #: Pure LCF — no unconditional round-robin grant; the rotating chain
    #: still breaks priority ties.
    NONE = "none"
    #: One position ``(I, J)`` wins unconditionally per cycle.
    SINGLE = "single"
    #: Figure 2 diagonal: position ``((I+res) mod n, (J+res) mod n)`` wins
    #: unconditionally when output ``(J+res) mod n`` is scheduled.
    DIAGONAL = "diagonal"
    #: The whole diagonal is granted *before* LCF scheduling starts.
    DIAGONAL_FIRST = "diagonal_first"


class LCFCentralVariant(Scheduler):
    """Central LCF scheduler parameterised by round-robin coverage.

    :class:`LCFCentral` and :class:`LCFCentralRR` are the two paper
    configurations; ``SINGLE`` and ``DIAGONAL_FIRST`` realise the rest of
    the Section 3 fairness/throughput range.
    """

    #: Set by the switch that observes this scheduler, never restored
    #: from a checkpoint (``repro.checkpoint.state``).
    _restore_keeps = ("record_trace",)

    def __init__(self, n: int, coverage: RRCoverage = RRCoverage.DIAGONAL):
        super().__init__(n)
        self.coverage = coverage
        #: Round-robin requester offset (paper variable ``I``).
        self._i = 0
        #: Round-robin resource offset (paper variable ``J``).
        self._j = 0
        #: When True, :attr:`last_trace` records each allocation step.
        self.record_trace = False
        self.last_trace: list[StepTrace] = []
        #: When set, every grant adds its choice count, tie-break depth
        #: and RR override to this :class:`~repro.core.base.DecisionTally`.
        self.decision_tally: DecisionTally | None = None

    # -- state ---------------------------------------------------------

    @property
    def rr_offsets(self) -> tuple[int, int]:
        """Current ``(I, J)`` round-robin offsets (diagonal start position)."""
        return self._i, self._j

    def set_rr_offsets(self, i: int, j: int) -> None:
        """Force the round-robin offsets — used to replay paper examples
        and to synchronise the RTL hardware model."""
        self._i = i % self.n
        self._j = j % self.n

    def reset(self) -> None:
        self._i = 0
        self._j = 0

    def _advance(self) -> None:
        """End-of-cycle rotation: ``I := (I+1) mod n; if I = 0 then
        J := (J+1) mod n`` (Figure 2, last line)."""
        self._i = (self._i + 1) % self.n
        if self._i == 0:
            self._j = (self._j + 1) % self.n

    # -- scheduling ----------------------------------------------------

    def _rr_wins(self, res: int) -> bool:
        """Whether the round-robin position pre-empts LCF at step ``res``."""
        if self.coverage is RRCoverage.DIAGONAL:
            return True
        if self.coverage is RRCoverage.SINGLE:
            return res == 0
        return False  # NONE and DIAGONAL_FIRST (handled before the loop)

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        n = self.n
        schedule = empty_schedule(n)
        col_free = np.ones(n, dtype=bool)
        if self.record_trace:
            self.last_trace = []
        tally = self.decision_tally

        if self.coverage is RRCoverage.DIAGONAL_FIRST:
            # Pre-grant every diagonal position with a request. Diagonal
            # rows/columns are pairwise distinct, so this is conflict free.
            for res in range(n):
                row = (self._i + res) % n
                col = (self._j + res) % n
                if requests[row, col]:
                    schedule[row] = col
                    col_free[col] = False
                    requests[row, :] = False

        # Requests for already-taken columns can never be granted, so they
        # do not count towards an input's number of choices.
        nrq = (requests & col_free[np.newaxis, :]).sum(axis=1)

        for res in range(n):
            col = (self._j + res) % n
            if not col_free[col]:
                continue
            rr_row = (self._i + res) % n

            grant = NO_GRANT
            rr_won = False
            if self._rr_wins(res) and requests[rr_row, col]:
                grant = rr_row  # round-robin position wins
                rr_won = True
            else:
                candidates = requests[:, col]
                if candidates.any():
                    grant = rotating_argmin(nrq, candidates, rr_row)

            if self.record_trace:
                self.last_trace.append(
                    StepTrace(col, rr_row, nrq.copy(), int(grant), rr_won)
                )
            if grant != NO_GRANT:
                if tally is not None:
                    tally.choices[nrq[grant]] += 1
                    tally.depths[(grant - rr_row) % n] += 1
                    tally.overrides += rr_won
                schedule[grant] = col
                col_free[col] = False
                # Outstanding requests for this column can no longer be
                # granted this cycle (Figure 2: nrq[req] := nrq[req]-1).
                nrq -= requests[:, col]
                requests[grant, :] = False
                nrq[grant] = 0

        self._advance()
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, coverage={self.coverage.value})"


class LCFCentral(LCFCentralVariant):
    """Pure central LCF (``lcf_central`` in Figure 12).

    No unconditional round-robin grant; the rotating chain starting at
    the diagonal position still breaks ties, and the target scheduling
    sequence still rotates so no output is structurally favoured.
    Offers no starvation protection — maximum throughput end of the
    Section 3 trade-off.
    """

    name = "lcf_central"

    def __init__(self, n: int):
        super().__init__(n, coverage=RRCoverage.NONE)


class LCFCentralRR(LCFCentralVariant):
    """Central LCF with the round-robin diagonal — the exact Figure 2
    pseudocode (``lcf_central_rr`` in Figure 12).

    Guarantees every (input, output) pair the round-robin position once
    every ``n^2`` cycles and with it a hard bandwidth floor of
    ``b/n^2`` (Section 3).
    """

    name = "lcf_central_rr"

    def __init__(self, n: int):
        super().__init__(n, coverage=RRCoverage.DIAGONAL)
