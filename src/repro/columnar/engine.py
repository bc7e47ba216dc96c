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
capacities; if the projected allocation exceeds ``max_bytes`` the
engine raises :class:`ColumnarMemoryError`, and the caller
(:func:`repro.columnar.run.run_replicates`) reruns the block serially —
safe precisely because both paths are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.columnar.bitpack import pack_requests
from repro.columnar.kernels import ColumnarKernel, make_columnar_kernel
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

        self.kernel: ColumnarKernel = make_columnar_kernel(
            scheduler_name, n, reps, iterations=config.iterations
        )
        #: One serial traffic pattern per replicate (public: equivalence
        #: tests compare end-of-run RNG positions against serial runs).
        self.patterns = [
            make_traffic(traffic, n, load, seed=s, **(traffic_kwargs or {}))
            for s in self.seeds
        ]

        self._n = n
        self._reps = reps
        rn = reps * n
        # Index grids: _cell_rn[r, i] = r*n + i rows into the PQ buffers;
        # _vq_base[r, i] + dst rows into the VOQ buffers;
        # _reqT_base[r, i] + dst*n flat offsets into the request tensor.
        self._cell_rn = np.arange(rn).reshape(reps, n)
        r_grid, i_grid = np.divmod(self._cell_rn, n)
        self._vq_base = self._cell_rn * n
        self._reqT_base = r_grid * (n * n) + i_grid

        # Per-input packet queues: circular (dst, timestamp) buffers.
        self._pq_depth = min(_PQ_DEPTH0, config.pq_capacity)
        self._pq_dst = np.zeros((rn, self._pq_depth), dtype=np.int64)
        self._pq_ts = np.zeros((rn, self._pq_depth), dtype=np.int64)
        self._pq_head = np.zeros((reps, n), dtype=np.int64)
        self._pq_len = np.zeros((reps, n), dtype=np.int64)
        self._pq_dropped = np.zeros((reps, n), dtype=np.int64)

        # Per-pair VOQs: circular timestamp buffers, one row per
        # (replicate, input, output) triple.
        self._voq_depth = min(_VOQ_DEPTH0, config.voq_capacity)
        self._voq_ts = np.zeros((rn * n, self._voq_depth), dtype=np.int64)
        self._voq_head = np.zeros(rn * n, dtype=np.int64)
        self._voq_len = np.zeros(rn * n, dtype=np.int64)

        # Transposed request tensor [replicate, output, input] — the
        # layout the kernels consume — plus its flat view for scatter
        # updates at _reqT_base + dst*n.
        self._reqT = np.zeros((reps, n, n), dtype=bool)
        self._req_flat = self._reqT.reshape(-1)

        self._offered = np.zeros(reps, dtype=np.int64)
        self._forwarded = np.zeros(reps, dtype=np.int64)
        #: Per-replicate delay counts, widened on demand at flushes.
        self._delays = np.zeros((reps, 0), dtype=np.int64)
        if collect_service:
            self._svc = np.zeros((reps, n, n), dtype=np.int64)
            self._svc_flat = self._svc.reshape(-1)
            self._svc_base = self._cell_rn * n
        else:
            self._svc = None

        # Deferred delay counting: per-slot (delay values, flat r*n+i
        # positions) chunks, added to ``_delays`` at each flush.
        self._chunk_vals: list[np.ndarray] = []
        self._chunk_flat: list[np.ndarray] = []
        self._chunk_count = 0

        # Fail fast when even the shallow initial buffers exceed the
        # ceiling — callers fall back before simulating a single slot.
        self._check_budget(0)

    # -- memory management -------------------------------------------

    def _buffer_bytes(self) -> int:
        return self._pq_dst.nbytes + self._pq_ts.nbytes + self._voq_ts.nbytes

    def _check_budget(self, extra: int) -> None:
        total = self._buffer_bytes() + extra
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
            (new_depth - self._pq_depth) * self._pq_dst.shape[0] * 8 * 2
        )
        head = self._pq_head.reshape(-1)
        self._pq_dst = self._regrow(self._pq_dst, head, self._pq_depth, new_depth)
        self._pq_ts = self._regrow(self._pq_ts, head, self._pq_depth, new_depth)
        self._pq_head[:] = 0
        self._pq_depth = new_depth

    def _grow_voq(self) -> None:
        new_depth = min(self.config.voq_capacity, self._voq_depth * 2)
        self._check_budget(
            (new_depth - self._voq_depth) * self._voq_ts.shape[0] * 8
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
        return self._voq_len.reshape(self._reps, self._n, self._n).copy()

    # -- slot pipeline ------------------------------------------------

    def _slot(self, slot: int, arr: np.ndarray | None = None) -> None:
        """Advance every replicate one slot; ``arr`` is the ``(R, n)``
        arrival matrix, drawn here from the patterns when omitted."""
        n = self._n
        measuring = self.measuring
        if arr is None:
            arr = np.array([pattern.arrivals() for pattern in self.patterns])

        # 1. Generation into PQs (drop when full, count drops always,
        #    count offered only while measuring — the serial stage 1).
        valid = arr != NO_ARRIVAL
        if measuring:
            self._offered += valid.sum(axis=1)
        can = valid & (self._pq_len < self.config.pq_capacity)
        if (can & (self._pq_len >= self._pq_depth)).any():
            self._grow_pq()
        pos = self._pq_head + self._pq_len
        np.subtract(pos, self._pq_depth, out=pos, where=pos >= self._pq_depth)
        cells = self._cell_rn[can]
        slots_in = pos[can]
        self._pq_dst[cells, slots_in] = arr[can]
        self._pq_ts[cells, slots_in] = slot
        self._pq_len += can
        self._pq_dropped += valid & ~can

        # 2. Injection: one packet per input per slot, head-of-line
        #    blocking when the destination VOQ is full.
        has = self._pq_len > 0
        dst = np.where(has, self._pq_dst[self._cell_rn, self._pq_head], 0)
        vcell = self._vq_base + dst
        vlen = self._voq_len[vcell]
        do = has & (vlen < self.config.voq_capacity)
        if (do & (vlen >= self._voq_depth)).any():
            self._grow_voq()
        ts = self._pq_ts[self._cell_rn, self._pq_head]
        new_head = self._pq_head + 1
        np.subtract(
            new_head, self._pq_depth, out=new_head, where=new_head >= self._pq_depth
        )
        np.copyto(self._pq_head, new_head, where=do)
        self._pq_len -= do
        vpos = self._voq_head[vcell] + vlen
        np.subtract(vpos, self._voq_depth, out=vpos, where=vpos >= self._voq_depth)
        injected = vcell[do]
        self._voq_ts[injected, vpos[do]] = ts[do]
        self._voq_len[injected] += 1
        self._req_flat[(self._reqT_base + dst * n)[do]] = True

        # 3. Scheduling over the live request tensor (read-only kernel).
        grants = self.kernel.schedule_batch(self._reqT)

        # 4. Forwarding: pop matched VOQ heads, clear emptied request
        #    bits, log delays for the deferred count.
        gm = grants != NO_GRANT
        g0 = np.where(gm, grants, 0)
        vcell = self._vq_base + g0
        vhead = self._voq_head[vcell]
        ts = self._voq_ts[vcell, vhead]
        forwarded_cells = vcell[gm]
        new_head = vhead + 1
        np.subtract(
            new_head, self._voq_depth, out=new_head, where=new_head >= self._voq_depth
        )
        self._voq_head[forwarded_cells] = new_head[gm]
        self._voq_len[forwarded_cells] -= 1
        emptied = self._voq_len[forwarded_cells] == 0
        req_idx = (self._reqT_base + g0 * n)[gm]
        self._req_flat[req_idx[emptied]] = False
        if measuring:
            self._forwarded += gm.sum(axis=1)
            flat = np.flatnonzero(gm)
            delay = (slot + 1 - ts).ravel()[flat]
            self._chunk_vals.append(delay)
            self._chunk_flat.append(flat)
            self._chunk_count += len(flat)
            if self._svc is not None:
                self._svc_flat[(self._svc_base + g0)[gm]] += 1

    def _flush(self) -> None:
        """Add the deferred delay chunks to the per-replicate counts with
        one ``np.bincount`` over ``replicate * width + delay``."""
        if not self._chunk_count:
            return
        vals = np.concatenate(self._chunk_vals)
        reps = np.concatenate(self._chunk_flat) // self._n
        self._chunk_vals.clear()
        self._chunk_flat.clear()
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
        delays = DelayHistogram(np.trim_zeros(self._delays[r], "b").tolist())
        port_slots = config.n_ports * config.measure_slots
        forwarded = int(self._forwarded[r])
        return SimResult(
            scheduler=self.scheduler_name,
            load=self.load,
            config=config,
            **latency_fields(delays, self.collect_percentiles),
            offered=int(self._offered[r]),
            forwarded=forwarded,
            dropped=int(self._pq_dropped[r].sum()),
            throughput=forwarded / port_slots if port_slots else math.nan,
            service_counts=self._svc[r].copy() if self._svc is not None else None,
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
            for t in range(k):
                slot = first + t
                if slot == warmup:
                    self.measuring = True
                self._slot(slot, block[t])
                if self._chunk_count >= _FLUSH_SAMPLES:
                    self._flush()
        self._flush()
        return [self._package(r) for r in range(self._reps)]
