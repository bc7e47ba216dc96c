"""Bitset kernel for iSLIP.

Same request/grant/accept rounds as :class:`repro.baselines.islip.ISLIP`
— including the first-iteration-only pointer update that desynchronises
the grant pointers — but the per-output grant and per-input accept
selections are rotate-and-lowest-bit operations on Python-int masks
instead of numpy argmins. Pointer state lives in plain Python lists; the
``pointers`` property still returns numpy arrays so inspection code and
tests see the reference shape.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import IterativeScheduler
from repro.fastpath.bitops import derive_cols
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.types import NO_GRANT


class FastISLIP(BitmaskKernelMixin, IterativeScheduler):
    """Bitset twin of :class:`repro.baselines.islip.ISLIP`."""

    name = "islip"

    def __init__(self, n: int, iterations: int = IterativeScheduler.DEFAULT_ITERATIONS):
        super().__init__(n, iterations)
        self._grant_ptr = [0] * n
        self._accept_ptr = [0] * n

    def reset(self) -> None:
        self._grant_ptr = [0] * self.n
        self._accept_ptr = [0] * self.n

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
        grant_ptr = self._grant_ptr
        accept_ptr = self._accept_ptr
        schedule = [NO_GRANT] * n
        in_free = full  # unmatched inputs
        out_free = full  # unmatched outputs

        for iteration in range(self.iterations):
            # Grant step: each unmatched output with live requesters
            # grants the one next at or after its pointer.
            offers = [0] * n  # per-input masks of granting outputs
            granted_inputs = 0
            remaining = out_free
            while remaining:
                out_bit = remaining & -remaining
                remaining ^= out_bit
                j = out_bit.bit_length() - 1
                cand = cols[j] & in_free
                if not cand:
                    continue
                start = grant_ptr[j]
                rotated = (cand >> start) | ((cand << (n - start)) & full)
                winner = start + (rotated & -rotated).bit_length() - 1
                if winner >= n:
                    winner -= n
                offers[winner] |= out_bit
                granted_inputs |= 1 << winner
            if not granted_inputs:
                break  # no live requests left

            # Accept step: each input with offers takes the one next at
            # or after its pointer (inputs in ascending order, like the
            # reference's flatnonzero walk).
            while granted_inputs:
                in_bit = granted_inputs & -granted_inputs
                granted_inputs ^= in_bit
                i = in_bit.bit_length() - 1
                mask = offers[i]
                start = accept_ptr[i]
                rotated = (mask >> start) | ((mask << (n - start)) & full)
                j = start + (rotated & -rotated).bit_length() - 1
                if j >= n:
                    j -= n
                schedule[i] = j
                in_free &= ~in_bit
                out_free &= ~(1 << j)
                if iteration == 0:
                    # Pointer update only on first-iteration accepts
                    # (McKeown 1999, Section II-C).
                    grant_ptr[j] = i + 1 if i + 1 < n else 0
                    accept_ptr[i] = j + 1 if j + 1 < n else 0
        return schedule
