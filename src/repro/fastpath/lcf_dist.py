"""Bitset kernels for the distributed LCF scheduler family.

Drop-in twins of :class:`repro.core.lcf_dist.LCFDistributed` and its
round-robin variant. The Section 5 request/grant/accept exchange is the
same mask algebra as the central kernel:

* the per-iteration *live* subgraph (unmatched initiators x unmatched
  targets) is ``rows[i] & out_free`` per input — one AND per row;
* ``nrq`` (choices an initiator sends with its requests) is a popcount
  of that live row; ``ngt`` (requests a target received, sent with its
  grant) is a popcount of the live column;
* grant and accept are both rotating-minimum scans over a candidate
  mask — the exact bit idiom of the central kernel's tie-break chain,
  with the same early exit at the key floor of 1.

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
        if self.record_trace:
            self.last_trace = []
        if self.injector is not None:
            self._cycle += 1
            self._iteration = 0
        in_free, out_free = self._pre_masks(rows, schedule, full, full)
        tally = self.decision_tally
        if tally is not None and in_free != full:
            # The RR overlay pre-matched; counted by the reference's
            # rule (see LCFDistributed._schedule).
            tally.overrides += self.injector is None or any(
                rows[i] & out_free for i in range(n) if in_free >> i & 1
            )
        for _ in range(self.iterations):
            live, in_free, out_free = self._iterate_masks(
                rows, cols, schedule, in_free, out_free, full
            )
            if not live:
                break  # converged: no request is left to send
        self._cycle_done()
        return schedule

    def _pre_masks(
        self, rows: list[int], schedule: list[int], in_free: int, out_free: int
    ) -> tuple[int, int]:
        """Hook for the round-robin overlay (no-op in the pure scheduler)."""
        return in_free, out_free

    def _cycle_done(self) -> None:
        """Hook for end-of-cycle state advance (the RR position walk)."""

    def _iterate_masks(
        self,
        rows: list[int],
        cols: list[int],
        schedule: list[int],
        in_free: int,
        out_free: int,
        full: int,
    ) -> tuple[bool, int, int]:
        n = self.n
        injector = self.injector
        tally = self.decision_tally

        # Request step: live row = requests to still-unmatched targets;
        # nrq is its popcount (matched initiators keep nrq 0, exactly
        # the reference's masked row sums). The live inputs are also
        # grouped into per-nrq-value bucket masks: every output needs
        # the minimum nrq over its candidate mask, and probing buckets
        # in ascending value order costs one AND per bucket instead of
        # one key lookup per candidate bit — equivalent ordering to
        # ``rotating_argmin``'s composite key (value first, chain second).
        nrq = [0] * n
        buckets: dict[int, int] = {}
        remaining = in_free
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            i = low.bit_length() - 1
            count = (rows[i] & out_free).bit_count()
            nrq[i] = count
            if count:
                buckets[count] = buckets.get(count, 0) | low
        if injector is not None:
            slot, iteration = self._cycle, self._iteration
            self._iteration += 1
            if not buckets:
                return False, in_free, out_free  # converged; no lossy trace
            if injector.plan.request_loss > 0.0:
                # nrq stays sender-side; targets see what was delivered.
                cols = derive_cols(
                    self._deliver(rows, in_free, out_free, slot, iteration), n
                )
        values = sorted(buckets)

        # Grant step: each live target grants its least-choice requester
        # (rotating chain from the per-output pointer breaks ties).
        grant_ptr = self._grant_ptr
        record = self.record_trace
        trace_grants = [] if record else None
        offers = [0] * n  # per-input masks of granting outputs
        ngt = [0] * n
        granted_inputs = 0
        remaining = out_free
        while remaining:
            out_bit = remaining & -remaining
            remaining ^= out_bit
            j = out_bit.bit_length() - 1
            cand = cols[j] & in_free
            if not cand:
                continue
            ngt[j] = cand.bit_count()
            for value in values:
                tied = cand & buckets[value]
                if tied:
                    start = grant_ptr[j]
                    rotated = (tied >> start) | ((tied << (n - start)) & full)
                    winner = start + (rotated & -rotated).bit_length() - 1
                    if winner >= n:
                        winner -= n
                    break
            if injector is None or injector.message_survives(
                slot, iteration, GRANT, j, winner
            ):
                offers[winner] |= out_bit
                granted_inputs |= 1 << winner
                if trace_grants is not None:
                    trace_grants.append((winner, j))

        trace = self._make_trace(cols, in_free, out_free, nrq, ngt, trace_grants) \
            if record else None

        # Accept step: each granted initiator takes the grant from the
        # target with the fewest received requests. A lost accept
        # commits nowhere, so the pointers stay put.
        accept_ptr = self._accept_ptr
        remaining = granted_inputs
        while remaining:
            in_bit = remaining & -remaining
            remaining ^= in_bit
            i = in_bit.bit_length() - 1
            mask = offers[i]
            start = accept_ptr[i]
            rotated = (mask >> start) | ((mask << (n - start)) & full)
            best = n + 1
            j = -1
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
            if injector is not None and not injector.message_survives(
                slot, iteration, ACCEPT, i, j
            ):
                continue
            schedule[i] = j
            in_free &= ~in_bit
            out_free &= ~(1 << j)
            grant_ptr[j] = i + 1 if i + 1 < n else 0
            accept_ptr[i] = j + 1 if j + 1 < n else 0
            if trace is not None:
                trace.accepts.append((i, j))
            if tally is not None:
                tally.choices[nrq[i]] += 1
        if trace is not None:
            self.last_trace.append(trace)
        return bool(buckets), in_free, out_free

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
