"""Replicate-batched request bitsets.

The columnar engine computes on boolean tensors (numpy vectorises those
directly), but exposes the packed ``(R, n, words)`` uint64 layout for
inspection and for cross-checking against the serial fastpath masks:
word ``w`` of row ``i`` holds bits ``64*w .. 64*w + 63``, LSB-first, so
the row's words read as one little-endian integer are exactly the
:mod:`repro.fastpath.bitops` Python-int mask of that row
(:data:`~repro.fastpath.bitops.WORD_BITS`-bit words).
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.bitops import WORD_BITS, word_count


def pack_requests(requests: np.ndarray) -> np.ndarray:
    """Pack a boolean request batch into uint64 bitset words.

    ``requests`` is ``(R, n, n)`` indexed ``[replicate, input, output]``;
    the result is ``(R, n, word_count(n))`` uint64, LSB-first within and
    across words (bit ``j`` of input ``i`` lives at
    ``packed[r, i, j >> 6] >> (j & 63) & 1``).
    """
    arr = np.ascontiguousarray(requests, dtype=np.uint8)
    reps, n, n2 = arr.shape
    if n != n2:
        raise ValueError(f"request batch must be (R, n, n), got {arr.shape}")
    words = word_count(n)
    padded = np.zeros((reps, n, words * WORD_BITS), dtype=np.uint8)
    padded[:, :, :n] = arr
    packed = np.packbits(padded, axis=2, bitorder="little")
    return packed.view(np.uint64).reshape(reps, n, words)


def unpack_requests(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_requests` — back to boolean ``(R, n, n)``."""
    reps = packed.shape[0]
    bits = np.unpackbits(
        packed.reshape(reps, n, -1).view(np.uint8), axis=2, bitorder="little"
    )
    return bits[:, :, :n].astype(bool)
