"""The parallel sweep engine.

Every Figure 12 data point is an independent simulation, so the full
(scheduler x load x replicate) grid is embarrassingly parallel. This
package turns that observation into infrastructure:

* :mod:`repro.sweep.spec` — :class:`SweepSpec` enumerates the grid as
  :class:`SweepPoint` records with deterministically derived per-
  replicate seeds;
* :mod:`repro.sweep.runner` — :class:`ParallelRunner` fans points out
  over ``multiprocessing`` workers (``workers=1`` is a serial path
  bit-identical to calling :func:`repro.sim.simulator.run_simulation`
  in a loop), reports progress/ETA, and aggregates a timing report;
* :mod:`repro.sweep.cache` — :class:`ResultCache`, an on-disk JSON
  store keyed by a stable hash of ``SimConfig`` + point, so
  interrupted sweeps resume without recomputation;
* :mod:`repro.sweep.merge` — replicate shards are combined into a
  single merged :class:`~repro.sim.simulator.SimResult` by adding their
  exact delay histograms, so merged latency statistics (percentiles
  included) equal those of one run over every shard's packets.

The Figure 12 presentation layer (:mod:`repro.analysis.sweep`) is a
thin client of this engine.
"""

from repro.sweep.cache import CACHE_VERSION, ResultCache, point_key
from repro.sweep.merge import merge_results
from repro.sweep.runner import (
    ParallelRunner,
    PointOutcome,
    SweepRun,
    SweepRunReport,
    WorkerTelemetry,
)
from repro.sweep.spec import PAPER_LOADS, SweepPoint, SweepSpec

__all__ = [
    "PAPER_LOADS",
    "SweepPoint",
    "SweepSpec",
    "ParallelRunner",
    "PointOutcome",
    "SweepRun",
    "SweepRunReport",
    "WorkerTelemetry",
    "ResultCache",
    "point_key",
    "CACHE_VERSION",
    "merge_results",
]
