"""Bitset kernel for the wrapped wave front arbiter.

:class:`repro.baselines.wavefront.WrappedWaveFront` sweeps the ``n``
wrapped diagonals of the request matrix in priority order, granting a
cell when its row and column are both still free. Request ``(i, j)``
lies on wave ``(i + j - offset) mod n``, so rotating row ``i`` right by
``(offset - i) mod n`` puts its cells in wave order: the lowest set bit
of the rotated row is the wave of the row's earliest request.

The kernel buckets the requesting rows by that wave and sweeps the
non-empty buckets in wave order. A row whose column an earlier wave
already took re-buckets at its next cell on a free column — always a
later wave, because columns are only ever taken. Cells on one wave have
distinct rows and columns, so the order inside a bucket does not
matter, and the schedule equals the reference's diagonal sweep grant
for grant.
"""

from __future__ import annotations

from repro.baselines.wavefront import WrappedWaveFront
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.types import NO_GRANT


class FastWrappedWaveFront(BitmaskKernelMixin, WrappedWaveFront):
    """Bitset twin of :class:`repro.baselines.wavefront.WrappedWaveFront`."""

    def schedule_masks(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        """One scheduling cycle over request bitmasks (see
        :meth:`repro.fastpath.lcf.FastLCFCentralVariant.schedule_masks`
        for the mask convention). Only ``rows`` is read, so ``cols`` may
        be ``None``; neither list is mutated."""
        n = self.n
        offset = self._offset
        full = (1 << n) - 1
        schedule = [NO_GRANT] * n
        buckets: list[list[int] | None] = [None] * n  # rows per wave
        pending = 0  # bit w set iff bucket w is non-empty
        for i, mask in enumerate(rows):
            if mask:
                shift = offset - i if offset >= i else offset - i + n
                waves = (mask >> shift) | ((mask << (n - shift)) & full)
                low = waves & -waves
                bucket = buckets[low.bit_length() - 1]
                if bucket is None:
                    buckets[low.bit_length() - 1] = [i]
                    pending |= low
                else:
                    bucket.append(i)

        col_free = full
        while pending:
            low = pending & -pending
            pending ^= low
            wave = low.bit_length() - 1
            for i in buckets[wave]:
                shift = offset - i if offset >= i else offset - i + n
                j = wave + shift
                if j >= n:
                    j -= n
                bit = 1 << j
                if col_free & bit:
                    schedule[i] = j
                    col_free ^= bit
                    continue
                # An earlier wave took the column: move on to the row's
                # next cell on a free column, past this wave.
                live = rows[i] & col_free
                waves = (live >> shift) | ((live << (n - shift)) & full)
                waves >>= wave + 1
                if waves:
                    later = wave + (waves & -waves).bit_length()
                    bucket = buckets[later]
                    if bucket is None:
                        buckets[later] = [i]
                        pending |= 1 << later
                    else:
                        bucket.append(i)

        self._offset = offset + 1 if offset + 1 < n else 0
        return schedule
