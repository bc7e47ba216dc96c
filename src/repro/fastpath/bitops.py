"""Bitmask primitives for the fastpath kernels.

Layout convention: a request matrix row is packed LSB-first, so input
``i``'s mask has bit ``j`` set iff ``R[i, j]`` is True — ``mask >> j & 1``
reads one crosspoint. Every row is one Python int at every width: up to
64 ports it fits one machine word, beyond that it is simply a wider int,
and every AND, popcount and rotation the kernels do on it is still one
C-level operation — the software form of the paper's n-bit request
register (Figure 6).

The helpers here are deliberately tiny: the kernels inline the
bit-extraction loops (``m & -m`` / ``bit_length``) on their hot paths
and only call into this module off the hot path (packing, tests,
trace reconstruction).
"""

from __future__ import annotations

import numpy as np

#: Bits per machine word: the widest row the uint64 dot product packs,
#: and the word size of :mod:`repro.columnar.bitpack`.
WORD_BITS = 64

# One power of two per column; a boolean row dotted with this vector IS
# the row's bitmask, and uint64 wraparound is unreachable for n <= 64.
_POW2 = 1 << np.arange(64, dtype=np.uint64)


def pack_rows(matrix: np.ndarray) -> list[int]:
    """Per-input bitmasks of a boolean request matrix (LSB = output 0)."""
    n = matrix.shape[1]
    if n <= 64:
        # Hot path: one integer dot product packs every row at once.
        return np.ascontiguousarray(matrix, np.uint64).dot(_POW2[:n]).tolist()
    arr = np.ascontiguousarray(matrix, dtype=np.uint8)
    packed = np.packbits(arr, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(arr.shape[0])
    ]


def pack_cols(matrix: np.ndarray) -> list[int]:
    """Per-output bitmasks (LSB = input 0) — ``pack_rows`` of the transpose."""
    n = matrix.shape[0]
    if n <= 64:
        return _POW2[:n].dot(np.ascontiguousarray(matrix, np.uint64)).tolist()
    return pack_rows(np.ascontiguousarray(matrix).T)


def unpack_rows(rows: list[int], n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: bitmasks back to a boolean matrix,
    with one ``np.unpackbits`` at any width."""
    width = (n + 7) // 8
    data = b"".join(mask.to_bytes(width, "little") for mask in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def derive_cols(rows: list[int], n: int) -> list[int]:
    """Column masks from row masks — the bit-transpose fallback used
    when a caller has only the per-input view."""
    cols = [0] * n
    for i, mask in enumerate(rows):
        bit = 1 << i
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low
    return cols


def next_at_or_after(mask: int, start: int, n: int) -> int:
    """First set bit of ``mask`` in cyclic order from ``start``.

    The bitset form of the round-robin pointer walk (iSLIP's grant and
    accept selection): rotate the mask so ``start`` lands on bit 0, take
    the lowest set bit, rotate back. ``mask`` must be non-zero.
    """
    if not mask:
        raise ValueError("no candidate set")
    rotated = (mask >> start) | ((mask << (n - start)) & ((1 << n) - 1))
    index = start + ((rotated & -rotated).bit_length() - 1)
    return index - n if index >= n else index


def select_kth_bit(mask: int, k: int) -> int:
    """Index of the ``k``-th set bit of ``mask`` in ascending order.

    This is how the fast PIM kernel realises ``rng.choice(flatnonzero)``
    without materialising the index array: draw ``k`` uniformly over the
    popcount, then walk to the ``k``-th requester.
    """
    for _ in range(k):
        mask &= mask - 1
    if not mask:
        raise IndexError("k out of range for mask")
    return (mask & -mask).bit_length() - 1


# -- word layout of the columnar bitsets -------------------------------


def word_count(n: int) -> int:
    """Words needed for an ``n``-bit mask split into :data:`WORD_BITS`-bit
    words (the packed layout of :mod:`repro.columnar.bitpack`)."""
    return (n + WORD_BITS - 1) >> 6
