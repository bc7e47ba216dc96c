"""Columnar multi-replicate engine: R replicates per worker, one slot loop.

Every Figure-12-style sweep point runs R replicates of the same
(scheduler, load, n) configuration with different seeds. The serial
stack simulates them one at a time; this package packs them into
replicate-batched numpy state and advances all R per slot, so the
per-slot Python overhead — the cost the ROADMAP shows decaying the
bitset fastpath's win at high port counts — is paid once per *batch*
instead of once per replicate.

Layers:

* :mod:`repro.columnar.kernels` — replicate-batched scheduler kernels
  (``lcf_central``, ``lcf_central_rr``, ``islip``), bit-identical per
  replicate to the serial schedulers including tie-breaks and pointer
  state.
* :mod:`repro.columnar.engine` — the batched PQ/VOQ slot pipeline with
  per-replicate RNG streams and per-replicate delay histograms.
* :mod:`repro.columnar.run` — :func:`run_replicates`, the entry point
  that picks columnar / switch-reuse serial / plain serial per
  configuration and block size (:func:`~repro.columnar.run.runs_columnar`,
  one measured crossover) and always returns serial-identical results.
* :mod:`repro.columnar.bench` — the ``columnar_*`` benchmark families
  (slots x replicates per second vs R serial fast runs) feeding
  ``BENCH_speed.json`` and the CI gate.

The sweep engine hands a cell's pending replicates to
:func:`run_replicates` as one block whenever that block batches; see
docs/PERFORMANCE.md ("Batching replicates") for measured scaling and
the crossover.
"""

from repro.columnar.bitpack import pack_requests, unpack_requests
from repro.columnar.engine import (
    DEFAULT_MAX_BYTES,
    ColumnarEngine,
    ColumnarMemoryError,
)
from repro.columnar.kernels import (
    COLUMNAR_SCHEDULER_NAMES,
    ColumnarISLIP,
    ColumnarKernel,
    ColumnarLCFCentral,
    columnar_schedulers,
    has_columnar_kernel,
    make_columnar_kernel,
)
from repro.columnar.run import columnar_supported, run_replicates

__all__ = [
    "COLUMNAR_SCHEDULER_NAMES",
    "DEFAULT_MAX_BYTES",
    "ColumnarEngine",
    "ColumnarISLIP",
    "ColumnarKernel",
    "ColumnarLCFCentral",
    "ColumnarMemoryError",
    "columnar_schedulers",
    "columnar_supported",
    "has_columnar_kernel",
    "make_columnar_kernel",
    "pack_requests",
    "run_replicates",
    "unpack_requests",
]
