"""numpy ``Generator`` draws decoded from raw PCG64 words.

The two hot consumers of randomness — the uniform Bernoulli traffic of
Section 6.3 and PIM's grant/accept picks — spend most of their time in
numpy's per-call dispatch, not in the generator. The decoders here
rebuild, from one ``bit_generator.random_raw`` block, exactly the
variates the per-call draws return, and leave the generator exactly
where those calls leave it:

* ``Generator.random`` turns each 64-bit word into the double
  ``(word >> 11) · 2⁻⁵³``;
* ``Generator.integers(0, c)`` for ``c ≤ 2³²`` is Lemire's
  multiply-shift (arXiv 1805.10941) on 32-bit halves: ``m = u32 · c``,
  the draw is ``m >> 32``, and numpy redraws while ``m mod 2³²`` is
  below ``(2³² − c) mod c``. A range of 1 draws nothing. The halves come
  from each word low first; the high half waits in the generator state
  (``has_uint32``/``uinteger``) and carries across calls.

numpy does not promise these internals across releases, so every
decoder is gated on :func:`decodable`, which holds only for a PCG64
generator and only once :func:`decoder_ok` — a one-time, per-process
comparison against numpy's own draws — has passed. When it does not
hold, callers draw per call as before.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

_M32 = 0xFFFFFFFF
_U32 = 1 << 32
_M128 = (1 << 128) - 1
#: PCG64's LCG multiplier: one draw maps ``state`` to
#: ``state · _PCG_MULT + inc (mod 2¹²⁸)``.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: ``2⁻⁵³``: ``Generator.random`` scales the top 53 bits of a word by it.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

# _JUMPS[w] = (aʷ, Σ_{i<w} aⁱ) mod 2¹²⁸ for a = _PCG_MULT: advancing w
# draws maps state s to aʷ · s + Σaⁱ · inc. A memo grown on demand under
# the lock; entries never change once appended.
_JUMPS = [(1, 0)]
_JUMPS_LOCK = threading.Lock()


def _advance(state: int, inc: int, words: int) -> int:
    """The PCG64 state ``words`` draws after ``state``."""
    if words >= len(_JUMPS):
        with _JUMPS_LOCK:
            while len(_JUMPS) <= words:
                mul, add = _JUMPS[-1]
                _JUMPS.append(((mul * _PCG_MULT) & _M128, (add * _PCG_MULT + 1) & _M128))
    mul, add = _JUMPS[words]
    return (mul * state + add * inc) & _M128


def _halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit halves of ``raw`` along its last axis, in the order
    numpy's bounded draws consume them: each word's low half, then its
    high half."""
    return raw.astype("<u8", copy=False).view("<u4")


def lemire_threshold(c: int) -> int:
    """Leftovers ``(u32 · c) mod 2³²`` below this make numpy redraw a
    bounded draw in ``[0, c)``; 0 (never) when ``c`` is a power of two."""
    return (_U32 - c) % c


def lemire_rejects(halves: np.ndarray, c: int) -> bool:
    """Whether any of ``halves`` (32-bit values) would be redrawn by
    numpy's bounded draw in ``[0, c)``."""
    threshold = lemire_threshold(c)
    if not threshold:
        return False
    leftover = (halves.astype(np.uint64) * c) & _M32
    return bool((leftover < threshold).any())


def bernoulli_block(
    bit_generator, n: int, load: float, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``k`` slots of uniform Bernoulli draws from one raw block.

    Per slot the per-call path draws ``random(n) < load`` (``n`` words)
    and then ``integers(0, n, size=n)`` (``n`` halves, so ``n/2`` words
    for even ``n``). Returns ``(active, dst)``, two ``(k, n)`` arrays
    whose row ``t`` is slot ``t``'s pair, and leaves the generator where
    ``k`` such slots leave it — ``uinteger`` included.

    Returns ``None`` with the generator untouched when the block cannot
    be decoded: ``n`` odd or 1, a buffered half at the start, or a
    destination draw in the block that numpy would redraw.
    """
    if n % 2 or k < 1:
        return None
    start = bit_generator.state
    if start["has_uint32"]:
        return None
    raw = bit_generator.random_raw(k * (n + n // 2)).reshape(k, -1)
    halves = _halves(raw[:, n:])
    if lemire_rejects(halves, n):
        bit_generator.state = start
        return None
    active = (raw[:, :n] >> 11) * _DOUBLE_UNIT < load
    dst = ((halves.astype(np.uint64) * n) >> 32).astype(np.int64)
    # The per-call path ends on the high half of the block's last word:
    # returned from the buffer, which keeps its value.
    end = bit_generator.state
    end["uinteger"] = int(halves[-1, -1])
    bit_generator.state = end
    return active, dst


def bounded_draws(rng: np.random.Generator, block_words: int):
    """``(draw, settle)`` for a run of ``rng.integers(0, c)`` draws.

    ``draw(c)`` returns what the next ``rng.integers(0, c)`` call would
    (``1 ≤ c ≤ 2³²``), and ``settle()`` ends the run with ``rng`` exactly
    where those calls would have left it. When :func:`decodable` holds,
    the draws are decoded from raw blocks of ``block_words`` words;
    otherwise ``draw`` makes the ``integers`` call and ``settle`` does
    nothing.
    """
    if decodable(rng.bit_generator):
        return _decoded_draws(rng.bit_generator, block_words)
    integers = rng.integers

    def draw(c: int) -> int:
        return int(integers(0, c))

    return draw, _no_settle


def _no_settle() -> None:
    pass


def _decoded_draws(bit_generator, block_words: int):
    """:func:`bounded_draws` on raw blocks. The generator runs ahead of
    the draws until ``settle()`` puts it back with one state write;
    nothing is read or written until the first draw that consumes a
    half."""
    halves: list[int] = []
    pos = 0
    start = None

    def draw(c: int) -> int:
        nonlocal pos, start
        if c == 1:
            return 0
        threshold = (_U32 - c) % c
        while True:
            if pos == len(halves):
                if start is None:
                    start = bit_generator.state
                    if start["has_uint32"]:
                        halves.append(start["uinteger"])
                        continue
                halves.extend(_halves(bit_generator.random_raw(block_words)).tolist())
            m = halves[pos] * c
            pos += 1
            if m & _M32 >= threshold:
                return m >> 32

    def settle() -> None:
        if start is None:
            return
        fresh = pos - start["has_uint32"]  # halves taken from new words
        if fresh & 1:
            has_uint32, uinteger = 1, halves[pos]
        elif fresh:
            has_uint32, uinteger = 0, halves[pos - 1]
        else:
            has_uint32, uinteger = 0, start["uinteger"]
        pcg = start["state"]
        bit_generator.state = {
            "bit_generator": start["bit_generator"],
            "state": {
                "state": _advance(pcg["state"], pcg["inc"], (fresh + 1) // 2),
                "inc": pcg["inc"],
            },
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }

    return draw, settle


def decodable(bit_generator) -> bool:
    """Whether the decoders may serve draws from ``bit_generator``."""
    return type(bit_generator) is np.random.PCG64 and decoder_ok()


@functools.cache
def decoder_ok() -> bool:
    """Whether the decoders reproduce this numpy's own draws — values
    and the whole generator state. Checked once per process, on first
    use, in about a millisecond."""
    try:
        return _bernoulli_agrees() and _bounded_agrees()
    except (AttributeError, KeyError, TypeError, ValueError):
        # A generator API or state layout the decoders do not know.
        return False


def _bernoulli_agrees() -> bool:
    for n in (4, 6):
        ref = np.random.default_rng(0x5EED + n)
        rng = np.random.default_rng(0x5EED + n)
        decoded = bernoulli_block(rng.bit_generator, n, 0.5, 3)
        if decoded is None:
            return False
        for active, dst in zip(*decoded):
            if not np.array_equal(active, ref.random(n) < 0.5):
                return False
            if not np.array_equal(dst, ref.integers(0, n, size=n)):
                return False
        if rng.bit_generator.state != ref.bit_generator.state:
            return False
    return True


def _bounded_agrees() -> bool:
    # One odd call leaves a buffered half; the next consumes exactly
    # it. A range of 2³¹ + 1 redraws about half its draws.
    ref = np.random.default_rng(0x5EED)
    rng = np.random.default_rng(0x5EED)
    big = (1 << 31) + 1
    for ranges in ([3], [2], [1], [5, big, 1, 7, big, big, 6], [big, 4, 3]):
        draw, settle = _decoded_draws(rng.bit_generator, 2)
        got = [draw(c) for c in ranges]
        settle()
        if got != [int(ref.integers(0, c)) for c in ranges]:
            return False
        if rng.bit_generator.state != ref.bit_generator.state:
            return False
    return True
