"""Batched scheduler kernels: R replicates advanced per call.

A columnar kernel is the replicate-batched twin of a serial
:class:`~repro.core.base.Scheduler`: one call to
:meth:`ColumnarKernel.schedule_batch` performs exactly one scheduling
cycle for every replicate at once, over a request tensor with a leading
replicate axis. The grants, the tie-breaks, and the end-of-cycle state
(round-robin offsets, grant/accept pointers) are **bit-identical per
replicate** to running R independent serial schedulers — enforced by
the hypothesis suites in ``tests/columnar/``.

Layout convention: kernels consume the *transposed* request tensor
``reqT`` of shape ``(R, n, n)`` indexed ``[replicate, output, input]``,
so the per-output candidate slice ``reqT[:, col, :]`` that every grant
step needs is a near-contiguous ``(R, n)`` view. Kernels treat the
tensor as **read-only** — the engine maintains it incrementally and
passes the live tensor without copying.
:func:`repro.columnar.bitpack.pack_requests` converts to the
``(R, n, words)`` uint64 bitset layout for inspection and for
cross-checks against the serial VOQ masks.

Why this wins: the serial fast path already replaced numpy-per-call
overhead with machine-word bit tricks, but it still pays the Python
interpreter once per (replicate, output) grant step. Here each grant
step is a handful of numpy calls over ``(R, n)`` arrays, so the
interpreter cost is amortised across all R replicates — the sweep
engine's process parallelism then multiplies this per-worker
vectorisation instead of replacing it. At small R those calls are the
cost, so the batched LCF kernel moves everything a step can know in
advance (its column's requests, key base and NRQ decrement) into a few
whole-tensor operations once per cycle, into buffers it reuses.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import IterativeScheduler
from repro.core.lcf_central import RRCoverage
from repro.types import NO_GRANT

# CHAIN[s, i] = (i - s) % n: the rotating tie-break chain starting at
# ``s``, as one gatherable row per start position. Shared by every
# kernel instance of a given size (read-only).
_CHAIN_CACHE: dict[int, np.ndarray] = {}


# Poison value for a matched input's nrq key, and the threshold that
# separates real composite keys (<= n^2 + n) from poisoned ones. The
# loop decrements a poisoned key at most n times by n, so it never
# drops below _MATCHED - n^2 >> _MATCHED_THRESHOLD for any sane n.
_MATCHED = np.int64(1) << 40
_MATCHED_THRESHOLD = np.int64(1) << 39
# Added to the key base of an input that does not request a step's
# column: it keeps the key above _MATCHED_THRESHOLD whatever the nrq key
# (real, or poisoned up to _MATCHED), and far from int64 overflow.
_NO_REQUEST = _MATCHED


def chain_table(n: int) -> np.ndarray:
    """The ``(n, n)`` rotating-chain ordinal table for ``n`` ports."""
    table = _CHAIN_CACHE.get(n)
    if table is None:
        idx = np.arange(n, dtype=np.int64)
        table = (idx[np.newaxis, :] - idx[:, np.newaxis]) % n
        table.setflags(write=False)
        _CHAIN_CACHE[n] = table
    return table


class ColumnarKernel:
    """Base class for replicate-batched scheduler kernels."""

    #: Registry name of the serial scheduler this kernel batches.
    name: str = "columnar"

    def __init__(self, n: int, replicates: int):
        if n < 1:
            raise ValueError(f"switch must have at least 1 port, got n={n}")
        if replicates < 1:
            raise ValueError(f"need at least 1 replicate, got R={replicates}")
        self.n = n
        self.replicates = replicates

    def schedule_batch(self, requests_t: np.ndarray) -> np.ndarray:
        """One scheduling cycle for every replicate.

        ``requests_t`` is the transposed request tensor
        ``(R, n_out, n_in)`` (boolean), treated as read-only. Returns an
        int64 ``(R, n)`` schedule batch: row ``r`` is the serial
        scheduler's schedule (output per input, or
        :data:`~repro.types.NO_GRANT`).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Restore every replicate's power-on scheduler state."""


class ColumnarLCFCentral(ColumnarKernel):
    """Batched central LCF (``lcf_central`` / ``lcf_central_rr``).

    The Figure 2 offsets ``(I, J)`` advance data-independently (every
    cycle, regardless of the requests), so a single scalar offset pair
    serves all replicates — replicates only diverge in their request
    state, never in the round-robin position.

    Per output step the serial ``rotating_argmin`` composite key
    ``nrq * n + chain_pos`` is unique among candidates, so a plain
    ``argmin`` over it reproduces the serial grant exactly, replicate
    by replicate. Once per cycle the request tensor is gathered in step
    order, and each step's key base (the chain ordinal, plus
    :data:`_NO_REQUEST` where the input does not request the column)
    and NRQ decrement are precomputed into buffers reused across
    cycles; a step is then one add, an argmin and a gather, then the
    updates. Granted inputs are excluded from later steps by poisoning
    their ``nrq`` key to :data:`_MATCHED` (far above any real composite
    key) rather than by clearing request rows — the input tensor stays
    pristine.
    """

    def __init__(self, n: int, replicates: int, coverage: RRCoverage):
        super().__init__(n, replicates)
        if coverage not in (RRCoverage.NONE, RRCoverage.DIAGONAL):
            raise ValueError(
                f"columnar LCF supports NONE/DIAGONAL coverage, got {coverage}"
            )
        self.coverage = coverage
        self.name = "lcf_central" if coverage is RRCoverage.NONE else "lcf_central_rr"
        self._i = 0
        self._j = 0
        # Flat offset of each replicate's row in an (R, n) buffer.
        self._offsets = np.arange(replicates) * n
        # Per-cycle step tensors, indexed [step, replicate, input].
        self._req = np.empty((n, replicates, n), dtype=bool)
        self._base = np.empty((n, replicates, n), dtype=np.int64)
        self._dec = np.empty((n, replicates, n), dtype=np.int64)
        self._nrq_key = np.empty((replicates, n), dtype=np.int64)
        self._key = np.empty((replicates, n), dtype=np.int64)

    @property
    def rr_offsets(self) -> tuple[int, int]:
        """Current ``(I, J)`` offsets (shared by construction)."""
        return self._i, self._j

    def reset(self) -> None:
        self._i = 0
        self._j = 0

    def schedule_batch(self, requests_t: np.ndarray) -> np.ndarray:
        n = self.n
        offsets = self._offsets
        diagonal = self.coverage is RRCoverage.DIAGONAL
        schedule = np.full((self.replicates, n), NO_GRANT, dtype=np.int64)
        steps = np.arange(n)
        step_cols = (self._j + steps) % n
        rr_rows = (self._i + steps) % n

        # Step s schedules output step_cols[s], whose chain starts at
        # rr_rows[s]. Its key base is that chain's ordinal where an
        # input requests the column and the ordinal plus _NO_REQUEST
        # elsewhere; its decrement is the column's requests scaled by
        # n. The nrq key is nrq scaled by n, so base + nrq key is the
        # serial composite key.
        req, base, dec = self._req, self._base, self._dec
        np.take(requests_t.transpose(1, 0, 2), step_cols, axis=0, out=req)
        np.multiply(req, n, out=dec)
        np.multiply(req, -_NO_REQUEST, out=base)
        base += (chain_table(n)[rr_rows] + _NO_REQUEST)[:, np.newaxis, :]
        nrq_key = self._nrq_key
        np.sum(dec, axis=0, out=nrq_key)
        key = self._key

        for s in range(n):
            np.add(base[s], nrq_key, out=key)
            winner = key.argmin(axis=1)
            # A replicate has a grant iff its argmin hit an unmatched
            # requester: a matched one is poisoned, and a column nobody
            # unmatched requests keeps every key above the threshold.
            granted = (key.take(winner + offsets) < _MATCHED_THRESHOLD).nonzero()[0]
            if diagonal:
                # Figure 2: the diagonal position pre-empts LCF (when
                # the diagonal input requests the column and is not yet
                # matched).
                rr_row = rr_rows[s]
                winner[key[:, rr_row] < _MATCHED_THRESHOLD] = rr_row
            # Figure 2: nrq[req] := nrq[req] - 1 for this column's
            # requesters. Matched requesters are decremented too, which
            # is harmless: their key stays far above the threshold.
            nrq_key -= dec[s]
            if granted.size:
                g = winner[granted]
                schedule[granted, g] = step_cols[s]
                nrq_key[granted, g] = _MATCHED

        # Figure 2, last line: I := (I+1) mod n; if I = 0, J := (J+1).
        self._i = (self._i + 1) % n
        if self._i == 0:
            self._j = (self._j + 1) % n
        return schedule


class ColumnarISLIP(ColumnarKernel):
    """Batched iSLIP.

    Pointers are data-dependent, so each replicate carries its own
    ``(n,)`` grant/accept pointer rows. The grant key (cyclic ordinal
    from the grant pointer, or ``n`` where there is no live request) is
    materialised once per cycle and then updated incrementally as ports
    match; the accept key is rebuilt per iteration by scattering the
    (at most one per output) grants into a pre-filled buffer.
    """

    name = "islip"

    def __init__(
        self,
        n: int,
        replicates: int,
        iterations: int = IterativeScheduler.DEFAULT_ITERATIONS,
    ):
        super().__init__(n, replicates)
        if iterations < 1:
            raise ValueError(f"need at least one iteration, got {iterations}")
        self.iterations = iterations
        self._grant_ptr = np.zeros((replicates, n), dtype=np.int64)
        self._accept_ptr = np.zeros((replicates, n), dtype=np.int64)
        chain = chain_table(n)
        # ord_g[r, j, :] = cyclic order from grant_ptr[r, j];
        # ord_a[r, i, :] = cyclic order from accept_ptr[r, i].
        # Cached across cycles, refreshed only for pointer rows a
        # first-iteration accept actually moved.
        self._ord_g = np.broadcast_to(chain[0], (replicates, n, n)).copy()
        self._ord_a = self._ord_g.copy()
        self._gkey = np.empty((replicates, n, n), dtype=np.int64)
        self._akey = np.empty((replicates, n, n), dtype=np.int64)
        self._rows = np.arange(replicates)[:, np.newaxis]

    @property
    def pointers(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the ``(R, n)`` (grant, accept) pointer batches."""
        return self._grant_ptr.copy(), self._accept_ptr.copy()

    def reset(self) -> None:
        chain = chain_table(self.n)
        self._grant_ptr[:] = 0
        self._accept_ptr[:] = 0
        self._ord_g[:] = chain[0]
        self._ord_a[:] = chain[0]

    def schedule_batch(self, requests_t: np.ndarray) -> np.ndarray:
        n = self.n
        reps = self.replicates
        chain = chain_table(n)
        schedule = np.full((reps, n), NO_GRANT, dtype=np.int64)
        gkey = self._gkey
        akey = self._akey
        arange_n = np.arange(n)
        # gkey[r, j, i]: grant-pointer ordinal of input i at output j, or
        # n where input i has nothing live for output j. Matched ports
        # are retired from it in place after each iteration.
        np.copyto(gkey, self._ord_g)
        np.copyto(gkey, n, where=np.logical_not(requests_t))

        for iteration in range(self.iterations):
            # Grant step: per (replicate, output), the requesting input
            # next at or after the grant pointer.
            gwin = gkey.argmin(axis=2)
            gval = gkey[self._rows, arange_n, gwin]
            ghas = gval != n
            if not ghas.any():
                break
            rg, jg = np.nonzero(ghas)
            ig = gwin[rg, jg]

            # Accept step: per (replicate, input), the granting output
            # next at or after the accept pointer. Outputs grant at most
            # one input each, so accepted outputs are distinct per
            # replicate and the scatters below are conflict free.
            akey.fill(n)
            akey[rg, ig, jg] = self._ord_a[rg, ig, jg]
            awin = akey.argmin(axis=2)
            aval = akey[self._rows, arange_n, awin]
            ra, ia = np.nonzero(aval != n)
            ja = awin[ra, ia]
            schedule[ra, ia] = ja
            # Retire matched ports: their rows/columns can never be live
            # again this cycle.
            gkey[ra, ja, :] = n
            gkey[ra, :, ia] = n

            if iteration == 0 and len(ra):
                # Pointer update only on first-iteration accepts
                # (McKeown 1999, Section II-C).
                gp = (ia + 1) % n
                ap = (ja + 1) % n
                self._grant_ptr[ra, ja] = gp
                self._accept_ptr[ra, ia] = ap
                self._ord_g[ra, ja] = chain[gp]
                self._ord_a[ra, ia] = chain[ap]
        return schedule


_COLUMNAR_FACTORIES = {
    "lcf_central": lambda n, R, **kw: ColumnarLCFCentral(n, R, RRCoverage.NONE),
    "lcf_central_rr": lambda n, R, **kw: ColumnarLCFCentral(
        n, R, RRCoverage.DIAGONAL
    ),
    "islip": lambda n, R, iterations=IterativeScheduler.DEFAULT_ITERATIONS, **kw: (
        ColumnarISLIP(n, R, iterations)
    ),
}

#: Registry names with a columnar kernel (everything else falls back).
COLUMNAR_SCHEDULER_NAMES = frozenset(_COLUMNAR_FACTORIES)


def columnar_schedulers() -> tuple[str, ...]:
    """Sorted registry names that have a replicate-batched kernel."""
    return tuple(sorted(_COLUMNAR_FACTORIES))


def has_columnar_kernel(name: str) -> bool:
    """Whether ``make_columnar_kernel(name, ...)`` can batch this scheduler."""
    return name in _COLUMNAR_FACTORIES


def make_columnar_kernel(name: str, n: int, replicates: int, **kwargs) -> ColumnarKernel:
    """Construct the columnar kernel for a registry scheduler name.

    Unlike :func:`~repro.fastpath.registry.make_fast_scheduler` there is
    no silent fallback — the engine decides per configuration whether to
    batch or run serially, so an uncovered name here is a bug.
    """
    factory = _COLUMNAR_FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"no columnar kernel for {name!r}; "
            f"covered: {', '.join(columnar_schedulers())}"
        )
    return factory(n, replicates, **kwargs)
