"""Bitset kernel for PIM with a bit-identical random stream.

:class:`repro.baselines.pim.PIM` draws its grant/accept selections with
``rng.choice(flatnonzero(mask))``; for a 1-D candidate array that is
exactly one bounded ``rng.integers(0, len)`` draw (verified by
``tests/fastpath``). The fast kernel therefore draws the same bounded
integer from the same generator and walks to the ``k``-th set bit of
the candidate mask — the random *stream* is consumed identically, so
fast and reference PIM agree grant for grant, forever.

The draws of one :meth:`FastPIM.schedule_masks` call are decoded from
raw PCG64 blocks (:func:`repro.rawdraw.bounded_draws`) rather than made
one ``integers`` call at a time; the call ends by setting the generator
to exactly the position the ``integers`` calls would leave. When the
decoder failed its one-time check against numpy, the draws are the
``integers`` calls themselves.
"""

from __future__ import annotations

import numpy as np

from repro import rawdraw
from repro.core.base import IterativeScheduler
from repro.fastpath.bitops import derive_cols
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.types import NO_GRANT


class FastPIM(BitmaskKernelMixin, IterativeScheduler):
    """Bitset twin of :class:`repro.baselines.pim.PIM`."""

    name = "pim"

    def __init__(
        self,
        n: int,
        iterations: int = IterativeScheduler.DEFAULT_ITERATIONS,
        seed: int = 0,
    ):
        super().__init__(n, iterations)
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Rewind the random stream to the construction-time seed."""
        self._rng = np.random.default_rng(self.seed)

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
        # n words hold the 2n halves a first iteration can draw at most.
        draw, settle = rawdraw.bounded_draws(self._rng, n + 8)
        schedule = [NO_GRANT] * n
        in_free = full
        out_free = full

        for _ in range(self.iterations):
            # Grant step: each unmatched output picks uniformly among
            # its live requesters. A single candidate draws nothing:
            # numpy returns ``low`` for a range of 1.
            offers = [0] * n
            granted_inputs = 0
            remaining = out_free
            while remaining:
                out_bit = remaining & -remaining
                remaining ^= out_bit
                cand = cols[out_bit.bit_length() - 1] & in_free
                if not cand:
                    continue
                k = draw(cand.bit_count())
                for _ in range(k):
                    cand &= cand - 1
                winner = (cand & -cand).bit_length() - 1
                offers[winner] |= out_bit
                granted_inputs |= 1 << winner
            if not granted_inputs:
                break

            # Accept step: each input with offers picks uniformly.
            while granted_inputs:
                in_bit = granted_inputs & -granted_inputs
                granted_inputs ^= in_bit
                i = in_bit.bit_length() - 1
                mask = offers[i]
                k = draw(mask.bit_count())
                for _ in range(k):
                    mask &= mask - 1
                j = (mask & -mask).bit_length() - 1
                schedule[i] = j
                in_free &= ~in_bit
                out_free &= ~(1 << j)
        settle()
        return schedule
