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
contiguous whole-tensor passes once per cycle, into buffers it reuses,
and a step is five numpy calls on narrow (int32) keys.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.base import IterativeScheduler
from repro.core.lcf_central import RRCoverage
from repro.types import NO_GRANT

# CHAIN[s, i] = (i - s) % n: the rotating tie-break chain starting at
# ``s``, as one gatherable row per start position. Shared by every
# kernel instance of a given size (read-only).
_CHAIN_CACHE: dict[int, np.ndarray] = {}


# Batched LCF keys are int32. At a step, an unmatched input that
# requests the step's column has the serial composite key
# nrq * n + chain ordinal, in [n, n * (n + 1)); the DIAGONAL chain
# start gets _DIAGONAL on top, below every other live key. An extra
# sentinel column, keyed exactly _SENTINEL, stands for "no grant": it
# sits above every live key while n * (n + 1) <= _SENTINEL, and below
# every dead key. An input that does not request the column has
# _NO_REQUEST in its key base, so its key is at least
# _NO_REQUEST + _DIAGONAL = 3 * 2**27. A matched input's NRQ key is
# reset to _MATCHED and then loses at most n per later step, so its key
# stays above _MATCHED - n**2 + _DIAGONAL > 2**28. The largest key,
# _NO_REQUEST + _MATCHED + n - 1, stays below 2**31.
_SENTINEL = 1 << 27
_NO_REQUEST = 1 << 29
_MATCHED = 1 << 29
_DIAGONAL = -_SENTINEL


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

    #: Widest switch the kernel schedules (``None``: any width).
    max_ports: int | None = None

    def __init__(self, n: int, replicates: int):
        if n < 1:
            raise ValueError(f"switch must have at least 1 port, got n={n}")
        if replicates < 1:
            raise ValueError(f"need at least 1 replicate, got R={replicates}")
        if self.max_ports is not None and n > self.max_ports:
            raise ValueError(
                f"{type(self).__name__} schedules at most {self.max_ports} "
                f"ports, got n={n}"
            )
        self.n = n
        self.replicates = replicates

    @staticmethod
    def buffer_bytes(n: int, replicates: int) -> int:
        """Bytes of the kernel's buffers that grow with ``R * n**2``,
        known before the kernel is built."""
        raise NotImplementedError

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
    by replicate. Once per cycle the request tensor is copied in step
    order into a buffer with one extra input column, the sentinel, that
    requests nothing. Three contiguous passes over it give every step's
    int32 key base (the chain ordinal, plus :data:`_NO_REQUEST` where the
    input does not request the column; the DIAGONAL chain start also
    gets :data:`_DIAGONAL`, so the Figure 2 pre-emption needs no step of
    its own) and NRQ decrement (the column's requests scaled by ``n``),
    and a sum gives the NRQ keys. A step is then five calls: the key
    add, ``argmin`` into the winners buffer, the winners' flat offsets,
    the NRQ decrement, and a ``put`` that resets every winner's NRQ key
    to :data:`_MATCHED`. The sentinel's key is :data:`_SENTINEL` and its
    NRQ key rests at :data:`_MATCHED`, so a column no unmatched input
    requests lands on it and the reset changes nothing. The cycle's
    grants are scattered from the winners buffer once at the end; the
    input tensor stays pristine.

    The keys bound the width: :attr:`max_ports` is the largest ``n``
    with ``n * (n + 1) < _SENTINEL``.
    """

    max_ports = 11_584

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
        # Row k: the key base of the chain that starts at input k for a
        # requesting input (plus _NO_REQUEST, which a request takes
        # off), then the sentinel's base. Stacked twice, so a cycle's
        # rows (I + s) % n are one slice, as are its columns (J + s) % n.
        chain = np.empty((2 * n, n + 1), dtype=np.int32)
        chain[:n, :n] = chain_table(n)
        chain[:n, :n] += _NO_REQUEST
        if coverage is RRCoverage.DIAGONAL:
            chain[np.arange(n), np.arange(n)] += _DIAGONAL
        chain[:n, n] = _SENTINEL - _MATCHED
        chain[n:] = chain[:n]
        self._chain = chain[:, np.newaxis, :]
        self._cols = np.arange(2 * n) % n
        # Step buffers, indexed [step, replicate, input]; the last input
        # is the sentinel.
        self._req = np.zeros((n, replicates, n + 1), dtype=bool)
        self._base = np.empty((n, replicates, n + 1), dtype=np.int32)
        self._dec = np.empty((n, replicates, n + 1), dtype=np.int32)
        self._nrq_key = np.empty((replicates, n + 1), dtype=np.int32)
        self._key = np.empty((replicates, n + 1), dtype=np.int32)
        self._winner = np.empty((n, replicates), dtype=np.intp)
        self._flat = np.empty((n, replicates), dtype=np.intp)
        # Flat offset of each replicate's row in an (R, n + 1) buffer.
        self._offsets = np.arange(replicates) * (n + 1)
        self._steps = list(zip(self._base, self._dec, self._winner, self._flat))

    @staticmethod
    def buffer_bytes(n: int, replicates: int) -> int:
        # The request copy (bool), key bases and decrements (int32).
        return 9 * n * replicates * (n + 1)

    @property
    def rr_offsets(self) -> tuple[int, int]:
        """Current ``(I, J)`` offsets (shared by construction)."""
        return self._i, self._j

    def reset(self) -> None:
        self._i = 0
        self._j = 0

    def schedule_batch(self, requests_t: np.ndarray) -> np.ndarray:
        n = self.n
        i, j = self._i, self._j
        # Step s schedules output (J + s) % n, whose chain starts at
        # input (I + s) % n.
        req = self._req
        by_step = req[:, :, :n].transpose(1, 0, 2)
        np.copyto(by_step[:, : n - j], requests_t[:, j:])
        np.copyto(by_step[:, n - j :], requests_t[:, :j])
        base, dec, nrq_key = self._base, self._dec, self._nrq_key
        np.multiply(req, np.int32(-_NO_REQUEST), out=base)
        base += self._chain[i : i + n]
        np.multiply(req, np.int32(n), out=dec)
        np.add.reduce(dec, axis=0, out=nrq_key)
        nrq_key[:, n] = _MATCHED

        key, offsets = self._key, self._offsets
        add, subtract = np.add, np.subtract
        argmin, poison = key.argmin, nrq_key.put
        for base_s, dec_s, winner, flat in self._steps:
            add(base_s, nrq_key, out=key)
            argmin(axis=1, out=winner)
            add(winner, offsets, out=flat)
            # Figure 2: nrq[req] := nrq[req] - 1 for this column's
            # requesters (matched ones too, which stay dead).
            subtract(nrq_key, dec_s, out=nrq_key)
            poison(flat, _MATCHED)

        schedule = np.full((self.replicates, n + 1), NO_GRANT, dtype=np.int64)
        schedule.reshape(-1)[self._flat] = self._cols[j : j + n, np.newaxis]
        # Figure 2, last line: I := (I+1) mod n; if I = 0, J := (J+1).
        self._i = (i + 1) % n
        if self._i == 0:
            self._j = (j + 1) % n
        return schedule[:, :n]


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

    @staticmethod
    def buffer_bytes(n: int, replicates: int) -> int:
        # Pointer orders and the grant/accept keys (int64).
        return 32 * replicates * n * n

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


#: Covered registry name -> (kernel class, constructor).
_COLUMNAR_KERNELS: dict[str, tuple[type[ColumnarKernel], Callable[..., ColumnarKernel]]] = {
    "lcf_central": (
        ColumnarLCFCentral,
        lambda n, R, **kw: ColumnarLCFCentral(n, R, RRCoverage.NONE),
    ),
    "lcf_central_rr": (
        ColumnarLCFCentral,
        lambda n, R, **kw: ColumnarLCFCentral(n, R, RRCoverage.DIAGONAL),
    ),
    "islip": (
        ColumnarISLIP,
        lambda n, R, iterations=IterativeScheduler.DEFAULT_ITERATIONS, **kw: (
            ColumnarISLIP(n, R, iterations)
        ),
    ),
}

#: Registry names with a columnar kernel (everything else falls back).
COLUMNAR_SCHEDULER_NAMES = frozenset(_COLUMNAR_KERNELS)


def columnar_schedulers() -> tuple[str, ...]:
    """Sorted registry names that have a replicate-batched kernel."""
    return tuple(sorted(_COLUMNAR_KERNELS))


def has_columnar_kernel(name: str, n_ports: int | None = None) -> bool:
    """Whether ``make_columnar_kernel(name, ...)`` can batch this
    scheduler and, given ``n_ports``, at that width (see
    :attr:`ColumnarKernel.max_ports`)."""
    entry = _COLUMNAR_KERNELS.get(name)
    if entry is None:
        return False
    max_ports = entry[0].max_ports
    return n_ports is None or max_ports is None or n_ports <= max_ports


def _kernel_entry(name: str) -> tuple[type[ColumnarKernel], Callable[..., ColumnarKernel]]:
    entry = _COLUMNAR_KERNELS.get(name)
    if entry is None:
        raise KeyError(
            f"no columnar kernel for {name!r}; "
            f"covered: {', '.join(columnar_schedulers())}"
        )
    return entry


def columnar_kernel_bytes(name: str, n: int, replicates: int) -> int:
    """:meth:`ColumnarKernel.buffer_bytes` of the kernel that batches
    ``name``, before it is built."""
    return _kernel_entry(name)[0].buffer_bytes(n, replicates)


def make_columnar_kernel(name: str, n: int, replicates: int, **kwargs) -> ColumnarKernel:
    """Construct the columnar kernel for a registry scheduler name.

    Unlike :func:`~repro.fastpath.registry.make_fast_scheduler` there is
    no silent fallback — the engine decides per configuration whether to
    batch or run serially, so an uncovered name here is a bug.
    """
    return _kernel_entry(name)[1](n, replicates, **kwargs)
