"""Bitset kernels for the distributed LCF scheduler family.

Drop-in twins of :class:`repro.core.lcf_dist.LCFDistributed` and its
round-robin variant. The Section 5 request/grant/accept exchange is the
same mask algebra as the central kernel:

* the per-iteration *live* subgraph (unmatched initiators x unmatched
  targets) is ``rows[i] & out_free`` per input — one AND per row;
* ``nrq`` (choices an initiator sends with its requests) is a popcount
  of that live row; ``ngt`` (requests a target received, sent with its
  grant) is a popcount of the live column;
* grant and accept are both rotating-minimum searches over a candidate
  mask — the exact bit idiom of the central kernel's tie-break chain,
  with the same early exit at the key floor of 1, and no rotation at
  all when the tie set or the offer mask has one bit.

``schedule_masks`` runs the whole cycle — every iteration — in one
body. Each iteration makes one pass over the free inputs that groups
them into per-``nrq``-value bucket masks, and each target takes the
first bucket, in ascending value order, that meets its candidates.
The buckets stay because every target of an iteration ranks by the
same ``nrq`` vector: built once, they serve all ``n`` targets, where
a per-target scan that reads each candidate's ``nrq`` measured
1.2–1.4× slower on served masks and 2.7–10.6× slower on 50%-dense
masks at 32–128 ports. ``nrq`` itself is kept per input only for a
trace; the tally reads an accepted input's as the popcount of its row
over the targets free when the iteration began.

State handling (per-port grant/accept pointers, the RR overlay walk,
``reset``, trace recording, the decision tally) is inherited from the
reference classes, so the implementations cannot drift apart
structurally; bit-identical behaviour — schedules,
:class:`IterationTrace` streams, pointer evolution — is enforced by
``tests/fastpath/``.

One kernel serves every width: a mask is one Python int per port, so
past 64 ports every AND, popcount and rotation is still a single
C-level operation on a wider int.

Given an ``injector`` the kernels play the reference's lossy control
channel (see :mod:`repro.core.lcf_dist`) with the same per-message
hash, so lossy runs stay bit-identical too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.lcf_dist import (
    ACCEPT,
    GRANT,
    REQUEST,
    IterationTrace,
    LCFDistributed,
    LCFDistributedRR,
)
from repro.fastpath.bitops import derive_cols, unpack_rows
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.types import NO_GRANT

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


class FastLCFDistributed(BitmaskKernelMixin, LCFDistributed):
    """Bitset twin of :class:`repro.core.lcf_dist.LCFDistributed`."""

    name = "lcf_dist"

    def __init__(
        self,
        n: int,
        iterations: int = LCFDistributed.DEFAULT_ITERATIONS,
        injector: FaultInjector | None = None,
    ):
        super().__init__(n, iterations, injector)
        # Pointer state in plain lists (int indexing on the hot path);
        # the reference-shaped numpy views come from ``pointers``.
        self._grant_ptr = [0] * n
        self._accept_ptr = [0] * n

    def reset(self) -> None:
        self._grant_ptr = [0] * self.n
        self._accept_ptr = [0] * self.n
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

    def schedule_masks(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        """One scheduling cycle over request bitmasks (see
        :meth:`repro.fastpath.lcf.FastLCFCentralVariant.schedule_masks`
        for the mask convention; neither list is mutated)."""
        n = self.n
        if cols is None:
            cols = derive_cols(rows, n)
        full = (1 << n) - 1
        schedule = [NO_GRANT] * n
        record = self.record_trace
        if record:
            self.last_trace = []
        injector = self.injector
        if injector is not None:
            self._cycle += 1
            self._iteration = 0
            slot = self._cycle
            survives = injector.message_survives
            request_loss = injector.plan.request_loss > 0.0
        in_free, out_free = self._pre_masks(rows, schedule, full, full)
        tally = self.decision_tally
        if tally is not None and in_free != full:
            # The RR overlay pre-matched; counted by the reference's
            # rule (see LCFDistributed._schedule).
            tally.overrides += injector is None or any(
                rows[i] & out_free for i in range(n) if in_free >> i & 1
            )
        grant_ptr, accept_ptr = self._grant_ptr, self._accept_ptr
        for _ in range(self.iterations):
            # Request step: the live row is the requests to still
            # unmatched targets, and nrq is its popcount. One pass over
            # the free inputs groups them into per-nrq-value bucket
            # masks: every target of the iteration ranks by the same
            # nrq vector, so probing the buckets in ascending value
            # order costs one AND per bucket instead of one lookup per
            # candidate — the order of ``rotating_argmin``'s composite
            # key (value first, chain second).
            live_out = out_free
            nrq = [0] * n if record else None
            buckets: dict[int, int] = {}
            remaining = in_free
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                i = low.bit_length() - 1
                count = (rows[i] & live_out).bit_count()
                if count:
                    buckets[count] = buckets.get(count, 0) | low
                    if record:
                        nrq[i] = count
            if injector is not None:
                iteration = self._iteration
                self._iteration += 1
            if not buckets and (injector is not None or not record):
                # Converged: no request is left to send. Only a traced
                # perfect channel records its final, empty iteration.
                break
            seen = cols
            if injector is not None and request_loss:
                # nrq stays sender-side; targets see what was delivered,
                # this iteration only.
                seen = derive_cols(
                    self._deliver(rows, in_free, live_out, slot, iteration), n
                )
            ladder = [buckets[value] for value in sorted(buckets)]

            # Grant step: each live target grants its least-choice
            # requester (rotating chain from the per-output pointer
            # breaks ties).
            trace_grants = [] if record else None
            offers = [0] * n  # per-input masks of granting outputs
            ngt = [0] * n
            granted_inputs = 0
            remaining = live_out
            while remaining:
                out_bit = remaining & -remaining
                remaining ^= out_bit
                j = out_bit.bit_length() - 1
                cand = seen[j] & in_free
                if not cand:
                    continue
                ngt[j] = cand.bit_count()
                for mask in ladder:
                    tied = cand & mask
                    if tied:
                        break
                if tied & (tied - 1):
                    start = grant_ptr[j]
                    rotated = (tied >> start) | ((tied << (n - start)) & full)
                    winner = start + (rotated & -rotated).bit_length() - 1
                    if winner >= n:
                        winner -= n
                else:
                    winner = tied.bit_length() - 1
                if injector is None or survives(slot, iteration, GRANT, j, winner):
                    offers[winner] |= out_bit
                    granted_inputs |= 1 << winner
                    if record:
                        trace_grants.append((winner, j))

            trace = (
                self._make_trace(seen, in_free, live_out, nrq, ngt, trace_grants)
                if record
                else None
            )

            # Accept step: each granted initiator takes the grant from
            # the target with the fewest received requests. A lost
            # accept commits nowhere, so the pointers stay put.
            remaining = granted_inputs
            while remaining:
                in_bit = remaining & -remaining
                remaining ^= in_bit
                i = in_bit.bit_length() - 1
                mask = offers[i]
                if mask & (mask - 1):
                    start = accept_ptr[i]
                    rotated = (mask >> start) | ((mask << (n - start)) & full)
                    best = n + 1
                    while rotated:
                        low = rotated & -rotated
                        out = start + low.bit_length() - 1
                        if out >= n:
                            out -= n
                        count = ngt[out]
                        if count < best:
                            best = count
                            j = out
                            if count == 1:
                                break  # a granting target's ngt floor
                        rotated ^= low
                else:
                    j = mask.bit_length() - 1
                if injector is not None and not survives(
                    slot, iteration, ACCEPT, i, j
                ):
                    continue
                schedule[i] = j
                in_free ^= in_bit
                out_free ^= 1 << j
                grant_ptr[j] = i + 1 if i + 1 < n else 0
                accept_ptr[i] = j + 1 if j + 1 < n else 0
                if trace is not None:
                    trace.accepts.append((i, j))
                if tally is not None:
                    tally.choices[(rows[i] & live_out).bit_count()] += 1
            if trace is not None:
                self.last_trace.append(trace)
            if not buckets:
                break  # the traced perfect channel's final iteration
        self._cycle_done()
        return schedule

    def _pre_masks(
        self, rows: list[int], schedule: list[int], in_free: int, out_free: int
    ) -> tuple[int, int]:
        """Hook for the round-robin overlay (no-op in the pure scheduler)."""
        return in_free, out_free

    def _cycle_done(self) -> None:
        """Hook for end-of-cycle state advance (the RR position walk)."""

    def _deliver(self, rows, in_free, out_free, slot, iteration):
        """The live request rows thinned by request loss."""
        survives = self.injector.message_survives
        delivered = [0] * self.n
        remaining = in_free
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            i = low.bit_length() - 1
            mask = scan = rows[i] & out_free
            while scan:
                bit = scan & -scan
                scan ^= bit
                if not survives(slot, iteration, REQUEST, i, bit.bit_length() - 1):
                    mask ^= bit
            delivered[i] = mask
        return delivered

    def _make_trace(self, cols, in_free, out_free, nrq, ngt, grant_pairs):
        """Materialise the reference-shaped :class:`IterationTrace`
        (numpy matrices) from the mask state — trace mode only. The
        request matrix is what the free targets received: ``cols`` are
        the delivered columns."""
        n = self.n
        received = [
            cols[j] & in_free if out_free >> j & 1 else 0 for j in range(n)
        ]
        grants = np.zeros((n, n), dtype=bool)
        for i, j in grant_pairs:
            grants[i, j] = True
        return IterationTrace(
            unpack_rows(received, n).T,
            np.array(nrq, dtype=np.int64),
            grants,
            np.array(ngt, dtype=np.int64),
        )


class FastLCFDistributedRR(FastLCFDistributed, LCFDistributedRR):
    """Bitset twin of :class:`repro.core.lcf_dist.LCFDistributedRR`.

    The Section 5 fairness overlay (one rotating request-matrix element
    pre-matched per cycle) and its position walk are realised in the
    mask hooks; the walk state itself (``rr_position`` and friends) is
    inherited from the reference class.
    """

    name = "lcf_dist_rr"

    def reset(self) -> None:
        super().reset()
        self._rr_i = 0
        self._rr_j = 0

    def _pre_masks(self, rows, schedule, in_free, out_free):
        i, j = self._rr_i, self._rr_j
        if rows[i] >> j & 1:
            schedule[i] = j
            in_free &= ~(1 << i)
            out_free &= ~(1 << j)
        return in_free, out_free

    def _cycle_done(self) -> None:
        self._rr_i = (self._rr_i + 1) % self.n
        if self._rr_i == 0:
            self._rr_j = (self._rr_j + 1) % self.n
