"""Shard merging: combine replicate ``SimResult`` shards into one.

Every latency field of a :class:`~repro.sim.simulator.SimResult` is read
off its ``delays`` — the exact
:class:`~repro.obs.estimators.DelayHistogram` of the packets forwarded
in the measurement window. Merging shards adds their counts, which is
the histogram one run forwarding every shard's packets would have
built, in any shard order; the merged mean, std, min, max and
percentiles are then read off it exactly as for a single run.

Counters (offered / forwarded / dropped / shed) sum; throughput pools as
total forwarded over total port-slots. The merged result carries
percentiles when every shard collected them. A single shard passes
through untouched — the invariant making a ``replicates=1`` sweep
bit-identical to a plain ``run_simulation`` call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.obs.estimators import DelayHistogram
from repro.sim.simulator import SimResult, latency_fields


def merge_results(results: Sequence[SimResult]) -> SimResult:
    """Merge replicate shards of one (scheduler, load) cell.

    All shards must be for the same scheduler and load and carry their
    ``delays``. A single shard is returned unchanged (preserving
    percentiles and service counts exactly); multiple shards are pooled
    as documented in the module docstring. The merged result's
    ``config`` is the first shard's — its seed identifies the
    replicate-0 stream the cell started from.
    """
    if not results:
        raise ValueError("merge_results needs at least one shard")
    if len(results) == 1:
        return results[0]
    cells = {(r.scheduler, r.load) for r in results}
    if len(cells) != 1:
        raise ValueError(f"shards span multiple (scheduler, load) cells: {sorted(cells)}")
    if any(r.delays is None for r in results):
        raise ValueError("merge_results needs the delay histogram of every shard")

    delays = DelayHistogram()
    for result in results:
        delays.merge(result.delays)
    forwarded = sum(r.forwarded for r in results)
    port_slots = sum(r.config.n_ports * r.config.measure_slots for r in results)
    if all(r.service_counts is not None for r in results):
        service_counts = sum(
            (r.service_counts for r in results[1:]), results[0].service_counts
        )
    else:
        service_counts = None
    return SimResult(
        scheduler=results[0].scheduler,
        load=results[0].load,
        config=results[0].config,
        **latency_fields(delays, all(r.percentiles for r in results)),
        offered=sum(r.offered for r in results),
        forwarded=forwarded,
        dropped=sum(r.dropped for r in results),
        shed=sum(r.shed for r in results),
        throughput=forwarded / port_slots if port_slots else math.nan,
        service_counts=service_counts,
        delays=delays,
    )
