"""Uniform Bernoulli i.i.d. traffic — the Figure 12 workload.

Each slot, each input generates a packet with probability ``load``; the
destination is uniform over all ``n`` outputs (the paper's hosts may
send to themselves in simulation, and so may ours — ``self_traffic``
can be disabled to model the ``n-1``-queue variant mentioned in
Section 2).

:meth:`BernoulliUniform.arrivals` draws one slot: ``random(n)`` for the
arrival coin flips, then ``integers(0, n, size=n)`` for the
destinations. :meth:`BernoulliUniform.arrivals_block` returns exactly
what ``k`` such calls return, and leaves the generator exactly where
they leave it, but decodes the whole block from one raw PCG64 draw
(:func:`repro.rawdraw.bernoulli_block`). It draws per slot instead —
from the same state, so the sample path is the same either way — when
``n`` is odd, ``self_traffic`` is off, the generator holds a buffered
32-bit half, the block holds a destination draw numpy would redraw, or
the decoder failed its one-time check against numpy's own draws.
"""

from __future__ import annotations

import numpy as np

from repro import rawdraw
from repro.traffic.base import NO_ARRIVAL, TrafficPattern


class BernoulliUniform(TrafficPattern):
    """I.i.d. Bernoulli arrivals with uniformly distributed destinations."""

    name = "bernoulli"

    #: Fields of the retired ``batch`` knob (the batch size and its
    #: pre-drawn slots, empty at every slot boundary with ``batch=1``)
    #: that v4 checkpoints still carry; a restore ignores them.
    _restore_keeps = ("batch", "_pending")

    def __init__(
        self,
        n: int,
        load: float,
        seed: int = 0,
        self_traffic: bool = True,
    ):
        super().__init__(n, load, seed)
        self.self_traffic = self_traffic
        if not self_traffic and n < 2:
            raise ValueError("self_traffic=False needs at least 2 ports")

    def arrivals(self) -> np.ndarray:
        n = self.n
        active = self.rng.random(n) < self.load
        dst = self.rng.integers(0, n, size=n)
        if not self.self_traffic:
            # Redraw destinations uniformly over the other n-1 ports by
            # shifting: pick an offset in [1, n-1] from self.
            offsets = self.rng.integers(1, n, size=n)
            dst = (np.arange(n) + offsets) % n
        return np.where(active, dst, NO_ARRIVAL)

    def arrivals_block(self, k: int) -> np.ndarray:
        bit_generator = self.rng.bit_generator
        if self.self_traffic and rawdraw.decodable(bit_generator):
            decoded = rawdraw.bernoulli_block(bit_generator, self.n, self.load, k)
            if decoded is not None:
                active, dst = decoded
                return np.where(active, dst, NO_ARRIVAL)
        return super().arrivals_block(k)

    def rate_matrix(self) -> np.ndarray:
        if self.self_traffic:
            return np.full((self.n, self.n), self.load / self.n)
        rate = np.full((self.n, self.n), self.load / (self.n - 1))
        np.fill_diagonal(rate, 0.0)
        return rate
