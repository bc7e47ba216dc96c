"""Bitset kernels for the central LCF scheduler family.

Drop-in twins of :class:`repro.core.lcf_central.LCFCentralVariant` and
its two paper configurations. The kernel follows the Figure 2
pseudocode on Python-int bitmasks:

* ``col_free`` / ``free_in`` are bitmasks of the outputs still
  schedulable and the inputs not yet granted this cycle;
* NRQ — the per-input number of *remaining* choices — starts as the
  popcount of ``row & col_free`` and is decremented for every requester
  of a taken column, exactly the ``nrq[req] := nrq[req] - 1`` step;
* the rotating tie-break chain is a bit rotation: candidates are
  scanned in chain order starting at the round-robin row, so the first
  strict NRQ minimum seen *is* the rotating-argmin winner.

The untraced hot path picks its strategy by switch size. Up to 32
ports the straightforward per-bit scan wins: candidate masks are a
handful of bits and the ``NRQ == 1`` early exit fires constantly. For
larger switches the kernel keeps the free inputs *bucketed by NRQ
value* (one bitmask per value): a column's winner is the first bucket,
in ascending value order, that intersects its candidate mask — one AND
per bucket probed instead of one NRQ lookup per candidate bit — and
the Figure 2 losers-decrement becomes a bulk move of each bucket's
intersection with the taken column's requesters into the next-lower
bucket: one AND/OR per value instead of one decrement per requester.
Decision-trace mode needs per-step NRQ snapshots, so it runs the
per-bit scan at every width, which records one :class:`StepTrace` per
output step when ``record_trace`` is set. A
:class:`~repro.core.base.DecisionTally` needs only each grant's NRQ,
chain depth and RR flag, which both bodies know where they grant, so a
metered switch keeps its width's body.

``n > 64`` switches run this same bucketed kernel on wider masks: a
128-port row is a five-digit Python int (30-bit digits), so every
AND/OR/popcount in the bucket loop stays a single C-level call.

State handling (the ``I``/``J`` offsets, ``reset``, trace recording,
the decision tally) is inherited from the reference class, so the two
implementations cannot drift apart structurally; bit-identical
behaviour — schedules, decision traces, round-robin state — is
enforced by ``tests/fastpath/``.
"""

from __future__ import annotations

import numpy as np

from repro.core.lcf_central import LCFCentralVariant, RRCoverage, StepTrace
from repro.fastpath.bitops import derive_cols
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.types import NO_GRANT

#: Largest port count scheduled by the per-bit scan; above this the
#: NRQ-bucket strategy wins (crossover measured between 32 and 64).
_SCAN_MAX_PORTS = 32


class FastLCFCentralVariant(BitmaskKernelMixin, LCFCentralVariant):
    """Central LCF on per-input bitmasks (any :class:`RRCoverage`)."""

    def schedule_masks(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        """One scheduling cycle over request bitmasks.

        ``rows[i]`` has bit ``j`` set iff input ``i`` requests output
        ``j``; ``cols`` is the transposed view (derived when omitted).
        Neither list is mutated. Returns the per-input grant list
        (``NO_GRANT`` where unmatched) and advances the round-robin
        state by one cycle, like :meth:`schedule`.
        """
        if self.record_trace or self.n <= _SCAN_MAX_PORTS:
            return self._schedule_masks_scan(rows, cols)
        return self._schedule_masks_bucketed(rows, cols)

    def _pre_grants(
        self, rows: list[int], schedule: list[int], col_free: int, free_in: int
    ) -> tuple[int, int]:
        """Apply the DIAGONAL_FIRST pre-grant sweep (no-op otherwise)."""
        if self.coverage is RRCoverage.DIAGONAL_FIRST:
            n = self.n
            i0, j0 = self._i, self._j
            for res in range(n):
                row = i0 + res
                if row >= n:
                    row -= n
                col = j0 + res
                if col >= n:
                    col -= n
                if free_in >> row & 1 and rows[row] >> col & 1:
                    schedule[row] = col
                    col_free &= ~(1 << col)
                    free_in &= ~(1 << row)
        return col_free, free_in

    def _schedule_masks_scan(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        """Per-bit kernel — the small-switch hot path, and the
        decision-trace twin of the reference inner loop when
        ``record_trace`` is set."""
        n = self.n
        if cols is None:
            cols = derive_cols(rows, n)
        i0, j0 = self._i, self._j
        full = (1 << n) - 1
        schedule = [NO_GRANT] * n
        trace = [] if self.record_trace else None
        if trace is not None:
            self.last_trace = trace
        tally = self.decision_tally
        if tally is not None:
            choices, depths, overrides = tally.choices, tally.depths, 0
        col_free, free_in = self._pre_grants(rows, schedule, full, full)

        # NRQ after any pre-grants: remaining choices per free input.
        nrq = [
            (rows[i] & col_free).bit_count() if free_in >> i & 1 else 0
            for i in range(n)
        ]

        diagonal = self.coverage is RRCoverage.DIAGONAL
        single = self.coverage is RRCoverage.SINGLE
        for res in range(n):
            col = j0 + res
            if col >= n:
                col -= n
            col_bit = 1 << col
            if not col_free & col_bit:
                continue
            rr_row = i0 + res
            if rr_row >= n:
                rr_row -= n

            grant = NO_GRANT
            if (
                (diagonal or (single and res == 0))
                and free_in >> rr_row & 1
                and rows[rr_row] & col_bit
            ):
                grant = rr_row
            else:
                cand = cols[col] & free_in
                if cand:
                    # Rotate so the chain starts at rr_row: scanning the
                    # rotated mask LSB-first visits candidates in tie
                    # order, so the first strict minimum wins.
                    rotated = (cand >> rr_row) | ((cand << (n - rr_row)) & full)
                    best_nrq = n + 1
                    while rotated:
                        low = rotated & -rotated
                        i = rr_row + low.bit_length() - 1
                        if i >= n:
                            i -= n
                        count = nrq[i]
                        if count < best_nrq:
                            best_nrq = count
                            grant = i
                            if count == 1:
                                break  # a live candidate's NRQ floor
                        rotated ^= low

            if trace is not None:
                # The scan reaches rr_row only as a free requester, so
                # rr_row wins by the RR test exactly when covered.
                rr_won = grant == rr_row and (diagonal or (single and res == 0))
                trace.append(
                    StepTrace(
                        col, rr_row, np.array(nrq, dtype=np.int64), grant, rr_won
                    )
                )
            if grant != NO_GRANT:
                if tally is not None:
                    # rr_row wins by the RR test exactly when covered.
                    choices[nrq[grant]] += 1
                    depths[(grant - rr_row) % n] += 1
                    overrides += grant == rr_row and (
                        diagonal or (single and res == 0)
                    )
                schedule[grant] = col
                col_free &= ~col_bit
                # Figure 2: every remaining requester of the taken
                # column loses one choice.
                losers = cols[col] & free_in
                while losers:
                    low = losers & -losers
                    nrq[low.bit_length() - 1] -= 1
                    losers ^= low
                free_in &= ~(1 << grant)
                nrq[grant] = 0

        if tally is not None:
            tally.overrides += overrides
        self._advance()
        return schedule

    def _schedule_masks_bucketed(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        """NRQ-bucket kernel — the large-switch hot path."""
        n = self.n
        if cols is None:
            cols = derive_cols(rows, n)
        i0, j0 = self._i, self._j
        full = (1 << n) - 1
        schedule = [NO_GRANT] * n
        tally = self.decision_tally
        if tally is not None:
            choices, depths, overrides = tally.choices, tally.depths, 0
        col_free, free_in = self._pre_grants(rows, schedule, full, full)

        # NRQ buckets after any pre-grants: ``buckets[v]`` is the mask
        # of free inputs with exactly ``v`` remaining choices, and
        # ``values`` keeps the occupied NRQ values in ascending order —
        # maintained incrementally by the move pass below, so no column
        # ever sorts. Zero-NRQ inputs are left out — they request no
        # free column, so they can never be a candidate.
        buckets: dict[int, int] = {}
        remaining = free_in
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            count = (rows[low.bit_length() - 1] & col_free).bit_count()
            if count:
                buckets[count] = buckets.get(count, 0) | low
        values = sorted(buckets)

        diagonal = self.coverage is RRCoverage.DIAGONAL
        single = self.coverage is RRCoverage.SINGLE
        for res in range(n):
            col = j0 + res
            if col >= n:
                col -= n
            col_bit = 1 << col
            if not col_free & col_bit:
                continue
            rr_row = i0 + res
            if rr_row >= n:
                rr_row -= n

            grant = NO_GRANT
            if (
                (diagonal or (single and res == 0))
                and free_in >> rr_row & 1
                and rows[rr_row] & col_bit
            ):
                grant = rr_row
                # The RR winner's bucket is not known from a scan;
                # its NRQ is one popcount (col_free still includes col).
                grant_value = (rows[grant] & col_free).bit_count()
            else:
                cand = cols[col] & free_in
                if cand:
                    for value in values:
                        tied = cand & buckets[value]
                        if tied:
                            # Rotate so the chain starts at rr_row; the
                            # lowest bit of the rotation is the first
                            # least-choice candidate in tie order.
                            rotated = (tied >> rr_row) | (
                                (tied << (n - rr_row)) & full
                            )
                            grant = rr_row + (rotated & -rotated).bit_length() - 1
                            if grant >= n:
                                grant -= n
                            grant_value = value
                            break

            if grant != NO_GRANT:
                if tally is not None:
                    # As in the scan: rr_row wins exactly when covered.
                    choices[grant_value] += 1
                    depths[(grant - rr_row) % n] += 1
                    overrides += grant == rr_row and (
                        diagonal or (single and res == 0)
                    )
                grant_bit = 1 << grant
                schedule[grant] = col
                col_free &= ~col_bit
                free_in &= ~grant_bit
                # Figure 2: every remaining requester of the taken
                # column loses one choice — whole buckets shift down by
                # one value at a time (ascending, so a mask never moves
                # twice). The grantee leaves the structure; ``values``
                # is rebuilt in the same walk, staying sorted.
                losers = cols[col] & free_in
                new_values = []
                for value in values:
                    mask = buckets[value]
                    if value == grant_value:
                        mask ^= grant_bit
                        if not mask:
                            del buckets[value]
                            continue
                        buckets[value] = mask
                    moved = mask & losers
                    if not moved:
                        new_values.append(value)
                        continue
                    kept = mask ^ moved
                    if kept:
                        buckets[value] = kept
                    else:
                        del buckets[value]
                    if value > 1:
                        if buckets.get(value - 1):
                            buckets[value - 1] |= moved
                        else:
                            buckets[value - 1] = moved
                        if not new_values or new_values[-1] != value - 1:
                            new_values.append(value - 1)
                    if kept:
                        new_values.append(value)
                values = new_values

        if tally is not None:
            tally.overrides += overrides
        self._advance()
        return schedule


class FastLCFCentral(FastLCFCentralVariant):
    """Bitset twin of :class:`repro.core.lcf_central.LCFCentral`."""

    name = "lcf_central"

    def __init__(self, n: int):
        super().__init__(n, coverage=RRCoverage.NONE)


class FastLCFCentralRR(FastLCFCentralVariant):
    """Bitset twin of :class:`repro.core.lcf_central.LCFCentralRR`."""

    name = "lcf_central_rr"

    def __init__(self, n: int):
        super().__init__(n, coverage=RRCoverage.DIAGONAL)
