"""The columnar simulation engine: R replicates of one config per process.

One :class:`ColumnarEngine` packs R replicates of a single
(scheduler, load, n) simulation into replicate-batched numpy state —
per-input packet queues and per-pair VOQs as circular timestamp buffers
with a leading replicate axis, the request state as a boolean
``(R, n, n)`` tensor maintained incrementally — and advances all R
replicates one slot per iteration with vectorised stage kernels. The
scheduling stage itself is a :mod:`repro.columnar.kernels` batched
kernel.

**Bit-identity contract.** Per replicate, every statistic the engine
produces — the delay histogram and every latency field read off it,
offered/forwarded/dropped counters, service counts, and the traffic
generator's end-of-run RNG position — is identical to running the
serial :func:`repro.sim.simulator.run_simulation` with that replicate's
seed. Two design points make this exact rather than approximate:

* each replicate owns its serial :class:`~repro.traffic.TrafficPattern`
  instance and draws one ``arrivals_block`` per ``_SLOT_BLOCK`` slots —
  exactly the per-slot arrivals, ending at the per-slot stream
  position — so the RNG sample path cannot differ;
* latency is a histogram of integer delays, and counting does not
  depend on order: the engine logs each slot's delays and adds them to
  per-replicate counts with one ``np.bincount`` per batched flush.

Queue buffers start shallow and double on demand up to the configured
capacities. The memory ceiling ``max_bytes`` counts every buffer that
grows with ``R * n**2`` — the queue buffers, the VOQ heads and lengths,
the request tensor, the service counts and the kernel's step buffers —
and is checked before any of them is allocated and before each growth;
past it the engine raises :class:`ColumnarMemoryError`, and the caller
(:func:`repro.columnar.run.run_replicates`) reruns the block serially —
safe precisely because both paths are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.columnar.bitpack import pack_requests
from repro.columnar.kernels import (
    ColumnarKernel,
    columnar_kernel_bytes,
    make_columnar_kernel,
)
from repro.sim.config import SimConfig
from repro.obs.estimators import DelayHistogram
from repro.sim.simulator import _SLOT_BLOCK, SimResult, latency_fields
from repro.traffic.base import NO_ARRIVAL, make_traffic
from repro.types import NO_GRANT

#: Default ceiling on the engine's large buffer allocations (bytes).
DEFAULT_MAX_BYTES = 2 * 1024**3

#: Flush the deferred delay chunks after roughly this many samples.
_FLUSH_SAMPLES = 1 << 16

#: Initial circular-buffer depths (packets); doubled on demand.
_PQ_DEPTH0 = 8
_VOQ_DEPTH0 = 4


class ColumnarMemoryError(RuntimeError):
    """Raised when growing the batched queue buffers would exceed the
    engine's memory ceiling; callers fall back to serial execution."""


class ColumnarEngine:
    """Batched simulator for R replicates of one crossbar configuration.

    ``seeds`` gives each replicate its traffic/config seed (the serial
    equivalent is ``run_simulation(config.with_(seed=s), ...)`` per
    seed). Only registry traffic names and schedulers with a columnar
    kernel are supported — eligibility screening lives in
    :func:`repro.columnar.run.columnar_supported`.
    """

    def __init__(
        self,
        config: SimConfig,
        scheduler_name: str,
        load: float,
        seeds: list[int],
        *,
        traffic: str = "bernoulli",
        traffic_kwargs: dict | None = None,
        collect_service: bool = False,
        collect_percentiles: bool = False,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        n = config.n_ports
        reps = len(seeds)
        if reps < 1:
            raise ValueError("need at least one replicate seed")
        self.config = config
        self.scheduler_name = scheduler_name
        self.load = load
        self.seeds = list(seeds)
        self.collect_service = collect_service
        self.collect_percentiles = collect_percentiles
        self.max_bytes = max_bytes
        self.measuring = False

        self._n = n
        self._reps = reps
        rn = reps * n
        self._pq_depth = min(_PQ_DEPTH0, config.pq_capacity)
        self._voq_depth = min(_VOQ_DEPTH0, config.voq_capacity)
        # Bytes of the R*n^2 buffers that never grow: VOQ heads and
        # lengths (int64), the request tensor (bool), the service counts
        # (int64) and the kernel's step buffers. Fail fast, before any of
        # them or the shallow queue buffers exist, when they exceed the
        # ceiling — callers fall back before simulating a single slot.
        self._fixed_bytes = rn * n * (17 + (8 if collect_service else 0))
        self._fixed_bytes += columnar_kernel_bytes(scheduler_name, n, reps)
        self._check_budget(
            self._fixed_bytes
            + rn * self._pq_depth * 16
            + rn * n * self._voq_depth * 8
        )

        self.kernel: ColumnarKernel = make_columnar_kernel(
            scheduler_name, n, reps, iterations=config.iterations
        )
        #: One serial traffic pattern per replicate (public: equivalence
        #: tests compare end-of-run RNG positions against serial runs).
        self.patterns = [
            make_traffic(traffic, n, load, seed=s, **(traffic_kwargs or {}))
            for s in self.seeds
        ]

        # Index grids: _cell_rn[r, i] = r*n + i rows into the PQ buffers.
        # A VOQ (r, i -> j) is cell _cell_base[r, i] + j*n: its row in the
        # VOQ buffers and its flat offset in the request tensor, which is
        # laid out [replicate, output, input] — the layout the kernels
        # consume.
        self._cell_rn = np.arange(rn).reshape(reps, n)
        r_grid, i_grid = np.divmod(self._cell_rn, n)
        self._cell_base = r_grid * (n * n) + i_grid

        # Per-input packet queues: circular (dst, timestamp) buffers.
        self._pq_dst = np.zeros((rn, self._pq_depth), dtype=np.int64)
        self._pq_ts = np.zeros((rn, self._pq_depth), dtype=np.int64)
        self._pq_head = np.zeros((reps, n), dtype=np.int64)
        self._pq_len = np.zeros((reps, n), dtype=np.int64)
        self._pq_dropped = np.zeros((reps, n), dtype=np.int64)
        #: Whether some packet queue is non-empty. While none is and no
        #: arrival meets a full VOQ, stages 1-2 leave the PQ buffers alone.
        self._pq_busy = False

        # Per-pair VOQs: circular timestamp buffers, one row per cell.
        self._voq_ts = np.zeros((rn * n, self._voq_depth), dtype=np.int64)
        self._voq_head = np.zeros(rn * n, dtype=np.int64)
        self._voq_len = np.zeros(rn * n, dtype=np.int64)

        # Transposed request tensor [replicate, output, input], plus its
        # flat view for scatter updates at VOQ cells.
        self._reqT = np.zeros((reps, n, n), dtype=bool)
        self._req_flat = self._reqT.reshape(-1)

        self._offered = np.zeros(reps, dtype=np.int64)
        #: Per-replicate delay counts, widened on demand at flushes.
        self._delays = np.zeros((reps, 0), dtype=np.int64)
        # Service counts by VOQ cell, [replicate, output, input].
        self._svc = np.zeros(rn * n, dtype=np.int64) if collect_service else None

        # Deferred delay counting: per-slot (delay values, VOQ cells)
        # chunks, added to ``_delays`` at each flush.
        self._chunk_vals: list[np.ndarray] = []
        self._chunk_cells: list[np.ndarray] = []
        self._chunk_count = 0

    # -- memory management -------------------------------------------

    def _buffer_bytes(self) -> int:
        return (
            self._pq_dst.nbytes
            + self._pq_ts.nbytes
            + self._voq_ts.nbytes
            + self._fixed_bytes
        )

    def _check_budget(self, total: int) -> None:
        if total > self.max_bytes:
            raise ColumnarMemoryError(
                f"columnar buffers would need {total} bytes "
                f"(limit {self.max_bytes}); falling back to serial"
            )

    @staticmethod
    def _regrow(buf: np.ndarray, head: np.ndarray, depth: int, new_depth: int) -> np.ndarray:
        """Return ``buf`` re-based so every circular row starts at 0."""
        idx = (head[:, np.newaxis] + np.arange(depth)) % depth
        out = np.empty((buf.shape[0], new_depth), dtype=buf.dtype)
        out[:, :depth] = np.take_along_axis(buf, idx, axis=1)
        return out

    def _grow_pq(self) -> None:
        new_depth = min(self.config.pq_capacity, self._pq_depth * 2)
        self._check_budget(
            self._buffer_bytes()
            + (new_depth - self._pq_depth) * self._pq_dst.shape[0] * 8 * 2
        )
        head = self._pq_head.reshape(-1)
        self._pq_dst = self._regrow(self._pq_dst, head, self._pq_depth, new_depth)
        self._pq_ts = self._regrow(self._pq_ts, head, self._pq_depth, new_depth)
        self._pq_head[:] = 0
        self._pq_depth = new_depth

    def _grow_voq(self) -> None:
        new_depth = min(self.config.voq_capacity, self._voq_depth * 2)
        self._check_budget(
            self._buffer_bytes()
            + (new_depth - self._voq_depth) * self._voq_ts.shape[0] * 8
        )
        self._voq_ts = self._regrow(
            self._voq_ts, self._voq_head, self._voq_depth, new_depth
        )
        self._voq_head[:] = 0
        self._voq_depth = new_depth

    # -- inspection ---------------------------------------------------

    def request_bitsets(self) -> np.ndarray:
        """Current request state as ``(R, n, words)`` uint64 bitsets —
        row ``i`` of replicate ``r``, read as one little-endian integer,
        is the serial ``VOQSet.row_masks[i]``; for cross-checks and
        debugging."""
        return pack_requests(self._reqT.transpose(0, 2, 1))

    def voq_occupancy(self) -> np.ndarray:
        """Current per-pair queue depths as an ``(R, n, n)`` array."""
        occupancy = self._voq_len.reshape(self._reps, self._n, self._n)
        return occupancy.transpose(0, 2, 1).copy()

    # -- slot pipeline ------------------------------------------------

    def _slot(self, slot: int, arr: np.ndarray | None = None) -> None:
        """Advance every replicate one slot; ``arr`` is the ``(R, n)``
        arrival matrix, drawn here from the patterns when omitted."""
        if arr is None:
            arr = np.array([pattern.arrivals() for pattern in self.patterns])
        self._run_slots(slot, arr[np.newaxis])

    def _run_slots(self, first_slot: int, block: np.ndarray) -> None:
        """Advance every replicate through consecutive slots; ``block``
        is ``(k, R, n)``, row ``t`` slot ``first_slot + t``'s arrivals.
        ``measuring`` must not change mid-block."""
        n = self._n
        config = self.config
        pq_capacity, voq_capacity = config.pq_capacity, config.voq_capacity
        cell_rn, cell_base = self._cell_rn, self._cell_base
        voq_head, voq_len = self._voq_head, self._voq_len
        req_flat = self._req_flat
        schedule_batch = self.kernel.schedule_batch
        measuring = self.measuring
        svc = self._svc if measuring else None
        valid_block = block != NO_ARRIVAL
        # The arrival's VOQ cell (meaningless where there is no arrival).
        cell_block = cell_base + block * n
        if measuring:
            self._offered += valid_block.sum(axis=(0, 2))

        for t in range(len(block)):
            slot = first_slot + t
            valid = valid_block[t]
            cell = cell_block[t]

            # 1 + 2. Generation into PQ i, then one packet from its head
            #    into VOQ row i (a full VOQ blocks the head), fused as in
            #    the serial slot body: an arrival at an empty PQ whose
            #    VOQ has room goes straight into the VOQ. The PQ buffers
            #    are touched only while some PQ is non-empty or some
            #    arrival's VOQ is full.
            vlen = voq_len[cell]
            vmax = vlen.max()
            if self._pq_busy or vmax >= voq_capacity:
                pq_len, pq_head = self._pq_len, self._pq_head
                push = valid & ((pq_len > 0) | (vlen >= voq_capacity))
                can = push & (pq_len < pq_capacity)
                if (can & (pq_len >= self._pq_depth)).any():
                    self._grow_pq()
                pos = pq_head + pq_len
                np.subtract(pos, self._pq_depth, out=pos, where=pos >= self._pq_depth)
                rows, cols = cell_rn[can], pos[can]
                self._pq_dst[rows, cols] = block[t][can]
                self._pq_ts[rows, cols] = slot
                pq_len += can
                self._pq_dropped += push & ~can
                # Every non-empty PQ offers its head; an input whose PQ
                # stayed empty offers its arrival, whose VOQ has room.
                has = pq_len > 0
                head_dst = self._pq_dst[cell_rn, pq_head]
                cell = np.where(has, cell_base + head_dst * n, cell)
                vlen = voq_len[cell]
                do = np.where(has, vlen < voq_capacity, valid)
                ts = np.where(has, self._pq_ts[cell_rn, pq_head], slot)[do]
                pop = has & do
                new_head = pq_head + 1
                np.subtract(
                    new_head, self._pq_depth, out=new_head,
                    where=new_head >= self._pq_depth,
                )
                np.copyto(pq_head, new_head, where=pop)
                pq_len -= pop
                self._pq_busy = bool(pq_len.any())
                vmax = vlen.max()
            else:
                do = valid
                ts = slot
            if vmax >= self._voq_depth and (do & (vlen >= self._voq_depth)).any():
                self._grow_voq()
            depth = self._voq_depth
            injected = cell[do]
            vlen = vlen[do]
            vpos = voq_head[injected] + vlen
            np.subtract(vpos, depth, out=vpos, where=vpos >= depth)
            # Flat offsets: one-index gathers and scatters are the cheap ones.
            self._voq_ts.reshape(-1)[injected * depth + vpos] = ts
            voq_len[injected] = vlen + 1
            req_flat[injected] = True

            # 3. Scheduling over the live request tensor (read-only kernel).
            grants = schedule_batch(self._reqT)

            # 4. Forwarding: pop matched VOQ heads, clear emptied request
            #    bits, log delays for the deferred count.
            forwarded = (cell_base + grants * n)[grants != NO_GRANT]
            vhead = voq_head[forwarded]
            ts = self._voq_ts.reshape(-1)[forwarded * depth + vhead]
            vhead += 1
            np.subtract(vhead, depth, out=vhead, where=vhead >= depth)
            voq_head[forwarded] = vhead
            left = voq_len[forwarded] - 1
            voq_len[forwarded] = left
            req_flat[forwarded[left == 0]] = False
            if measuring:
                self._chunk_vals.append(slot + 1 - ts)
                self._chunk_cells.append(forwarded)
                self._chunk_count += len(forwarded)
                if svc is not None:
                    svc[forwarded] += 1

    def _flush(self) -> None:
        """Add the deferred delay chunks to the per-replicate counts with
        one ``np.bincount`` over ``replicate * width + delay``."""
        if not self._chunk_count:
            return
        vals = np.concatenate(self._chunk_vals)
        reps = np.concatenate(self._chunk_cells) // (self._n * self._n)
        self._chunk_vals.clear()
        self._chunk_cells.clear()
        self._chunk_count = 0
        width = max(self._delays.shape[1], int(vals.max()) + 1)
        if width > self._delays.shape[1]:
            grown = np.zeros((self._reps, width), dtype=np.int64)
            grown[:, : self._delays.shape[1]] = self._delays
            self._delays = grown
        self._delays += np.bincount(
            reps * width + vals, minlength=self._reps * width
        ).reshape(self._reps, width)

    def _package(self, r: int) -> SimResult:
        """Mirror of the serial ``_package_result`` for one replicate."""
        config = self.config.with_(seed=self.seeds[r])
        counts = np.trim_zeros(self._delays[r], "b")
        delays = DelayHistogram(counts.tolist())
        port_slots = config.n_ports * config.measure_slots
        # Every measured forward logs one delay.
        forwarded = int(counts.sum())
        if self._svc is None:
            service = None
        else:
            service = self._svc.reshape(self._reps, self._n, self._n)[r].T.copy()
        return SimResult(
            scheduler=self.scheduler_name,
            load=self.load,
            config=config,
            **latency_fields(delays, self.collect_percentiles),
            offered=int(self._offered[r]),
            forwarded=forwarded,
            dropped=int(self._pq_dropped[r].sum()),
            throughput=forwarded / port_slots if port_slots else math.nan,
            service_counts=service,
            shed=0,
            delays=delays,
        )

    def run(self) -> list[SimResult]:
        """Drive warmup + measurement for all replicates; returns one
        :class:`~repro.sim.simulator.SimResult` per seed, in seed order."""
        config = self.config
        warmup = config.warmup_slots
        total = config.total_slots
        for first in range(0, total, _SLOT_BLOCK):
            k = min(_SLOT_BLOCK, total - first)
            # (k, R, n): row t is slot first + t's arrival matrix.
            block = np.stack([p.arrivals_block(k) for p in self.patterns], axis=1)
            # Split at the warmup boundary: measuring is per block.
            cut = min(max(warmup - first, 0), k)
            for start, part in ((first, block[:cut]), (first + cut, block[cut:])):
                if len(part):
                    self.measuring = start >= warmup
                    self._run_slots(start, part)
            if self._chunk_count >= _FLUSH_SAMPLES:
                self._flush()
        self._flush()
        return [self._package(r) for r in range(self._reps)]
