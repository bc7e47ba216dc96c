"""FIFO input-queue scheduler (the paper's ``fifo`` baseline).

"This scheduler uses a single FIFO queue per input port (replacing
multiple VOQs). The scheduler serves the FIFO queues in a round-robin
fashion." (Section 6.3.)

Only the *head-of-line* packet of each input is eligible, so the
scheduler sees a HOL destination vector, not a full request matrix: when
several heads contend for the same output, one wins and the others are
blocked even if packets behind them target idle outputs — the classic
head-of-line blocking that caps throughput at ``2 - sqrt(2) ≈ 0.586``
for large ``n`` (Karol, Hluchyj & Morgan, reference [8]).

Round-robin service is implemented with a rotating input offset: each
output grants the contending input that comes first at or after the
offset, and the offset advances every scheduling cycle. The arbitration
runs on Python lists (:meth:`FIFOScheduler.arbitrate`), which is what
the FIFO switch's slot loop calls; the numpy entry points wrap it.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Scheduler
from repro.types import NO_GRANT, RequestMatrix, Schedule


class FIFOScheduler(Scheduler):
    """Round-robin arbitration among head-of-line packets."""

    name = "fifo"

    def __init__(self, n: int):
        super().__init__(n)
        self._offset = 0

    def reset(self) -> None:
        self._offset = 0

    def schedule_hol(self, hol: np.ndarray) -> Schedule:
        """Schedule from a head-of-line vector.

        ``hol[i]`` is the output requested by input ``i``'s head packet,
        or ``NO_GRANT`` if the input queue is empty.
        """
        hol = np.asarray(hol, dtype=np.int64)
        if hol.shape != (self.n,):
            raise ValueError(f"HOL vector must have shape ({self.n},), got {hol.shape}")
        return np.array(self.arbitrate(hol.tolist()), dtype=np.int64)

    def arbitrate(self, hol: list[int]) -> list[int]:
        """One round-robin cycle over a head-of-line list of Python ints
        (same convention as :meth:`schedule_hol`); returns the grant
        list. Inputs are visited in cyclic order from the round-robin
        offset, so the closest contender for each output wins."""
        n = self.n
        start = self._offset
        grants = [NO_GRANT] * n
        taken = 0  # bit j set once output j is granted
        for i in range(start, start + n):
            if i >= n:
                i -= n
            j = hol[i]
            if j != NO_GRANT and not taken >> j & 1:
                grants[i] = j
                taken |= 1 << j
        self._offset = start + 1 if start + 1 < n else 0
        return grants

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        """Request-matrix API: rows must have at most one set bit (the HOL
        destination). Provided so the FIFO scheduler fits the common
        :class:`Scheduler` interface used by the registry and tests."""
        counts = requests.sum(axis=1)
        if np.any(counts > 1):
            raise ValueError(
                "fifo scheduler models a single FIFO per input: each row of "
                "the request matrix may contain at most one request"
            )
        hol = np.where(counts == 1, np.argmax(requests, axis=1), NO_GRANT)
        return self.schedule_hol(hol.astype(np.int64))
