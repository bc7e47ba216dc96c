"""`run_replicates`: the multi-replicate entry point.

One call simulates R replicates (same scheduler/load/config, different
seeds) and returns one :class:`~repro.sim.simulator.SimResult` per
seed, in seed order. Three execution strategies, all bit-identical per
replicate:

1. **Columnar**: the
   :class:`~repro.columnar.engine.ColumnarEngine` advances all R
   replicates per slot with batched numpy kernels — the fast path for
   blocks of at least :data:`COLUMNAR_MIN_REPLICATES` replicates of a
   covered scheduler (see
   :func:`~repro.columnar.kernels.columnar_schedulers`) on plain
   registry traffic with no instrumentation attached.
2. **Serial with switch reuse**: one
   :class:`~repro.sim.InputQueuedSwitch` is built for the cell and
   :meth:`~repro.sim.InputQueuedSwitch.reset_run` re-arms it per
   replicate (fresh scheduler + traffic seed) — rebuilding the ``n^2``
   VOQ structures per replicate showed up in sweep ``--profile`` dumps.
3. **Plain serial**: one :func:`~repro.sim.run_simulation` per seed,
   for everything the other two cannot express (dedicated switch
   models, faults, adapters, admission control, tracing).

The strategy is decided here (:func:`runs_columnar`), never by the
caller: uncovered configurations and small blocks run serially, they
never fail. A :class:`ColumnarMemoryError` mid-run (queue growth beyond
the memory ceiling) also falls back, rerunning the whole block serially
from scratch — safe because both paths produce identical results.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.columnar.engine import (
    DEFAULT_MAX_BYTES,
    ColumnarEngine,
    ColumnarMemoryError,
)
from repro.columnar.kernels import has_columnar_kernel
from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import (
    SimResult,
    _drive,
    _package_result,
    make_crossbar_scheduler,
    run_simulation,
)
from repro.traffic.base import make_traffic


def _null_faults(faults) -> bool:
    """Whether ``faults`` resolves to no injector at all (None or a null
    plan) — the serial driver treats both identically."""
    if faults is None:
        return True
    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.from_spec(faults)
    return plan.is_null


def columnar_supported(
    scheduler_name: str,
    *,
    n_ports: int | None = None,
    traffic: object = "bernoulli",
    faults=None,
    adapter=None,
    admission=None,
    tracer_factory=None,
) -> tuple[bool, str]:
    """Whether a replicate block can run on the columnar engine.

    ``n_ports``, when given, is the switch width: a width the kernel's
    keys do not cover (:attr:`~repro.columnar.kernels.ColumnarKernel.max_ports`)
    is never batched. Returns ``(supported, reason)`` — ``reason`` names
    the first blocking feature when unsupported (useful in logs and
    tests).
    """
    if not has_columnar_kernel(scheduler_name):
        return False, f"no columnar kernel for scheduler {scheduler_name!r}"
    if n_ports is not None and not has_columnar_kernel(scheduler_name, n_ports):
        return False, f"{n_ports} ports are beyond the {scheduler_name!r} kernel's keys"
    if not isinstance(traffic, str):
        return False, "traffic must be a registry name, not a pattern instance"
    if not _null_faults(faults):
        return False, "fault injection runs per replicate"
    if adapter is not None:
        return False, "adaptive scheduling runs per replicate"
    if admission is not None:
        return False, "admission control runs per replicate"
    if tracer_factory is not None:
        return False, "tracing runs per replicate"
    return True, ""


#: Smallest replicate block :func:`run_replicates` runs on the columnar
#: engine; smaller blocks run on the switch-reuse serial loop, where the
#: engine's per-slot numpy dispatch cost more than R serial bitset slots
#: when R = 2 and 4 were last measured. At R = 8, serial ÷ columnar
#: time at n = 16 / 64 reads about 2.0 / 6.1-6.4 for the LCF kernels and
#: 1.15 / 2.0 for iSLIP (medians; docs/PERFORMANCE.md has the table).
COLUMNAR_MIN_REPLICATES = 8


def runs_columnar(scheduler_name: str, replicates: int, **features) -> bool:
    """Whether :func:`run_replicates` batches a block of ``replicates``
    seeds on the columnar engine: the block is at or above
    :data:`COLUMNAR_MIN_REPLICATES` and :func:`columnar_supported`
    accepts ``scheduler_name`` with ``features`` (its keyword
    arguments, ``n_ports`` included)."""
    return (
        replicates >= COLUMNAR_MIN_REPLICATES
        and columnar_supported(scheduler_name, **features)[0]
    )


def _run_serial(
    config: SimConfig,
    scheduler_name: str,
    load: float,
    seeds: list[int],
    *,
    traffic="bernoulli",
    traffic_kwargs=None,
    collect_service: bool = False,
    collect_percentiles: bool = False,
    faults=None,
    adapter=None,
    admission=None,
    tracer_factory=None,
) -> list[SimResult]:
    reuse = (
        isinstance(traffic, str)
        and scheduler_name not in ("fifo", "outbuf")
        and _null_faults(faults)
        and adapter is None
        and admission is None
        and tracer_factory is None
    )
    if not reuse:
        return [
            run_simulation(
                config.with_(seed=seed),
                scheduler_name,
                load,
                traffic=traffic,
                traffic_kwargs=traffic_kwargs,
                collect_service=collect_service,
                collect_percentiles=collect_percentiles,
                tracer=tracer_factory(index) if tracer_factory is not None else None,
                faults=faults,
                adapter=adapter,
                admission=admission,
            )
            for index, seed in enumerate(seeds)
        ]

    # Build the switch once for the cell; per replicate only the
    # scheduler and traffic seeds change (satellite of the columnar
    # work: the n^2 VOQ structures dominate build time).
    switch: InputQueuedSwitch | None = None
    results = []
    for seed in seeds:
        cfg = config.with_(seed=seed)
        pattern = make_traffic(
            traffic, cfg.n_ports, load, seed=seed, **(traffic_kwargs or {})
        )
        scheduler = make_crossbar_scheduler(
            scheduler_name, cfg.n_ports, iterations=cfg.iterations, seed=seed
        )
        if switch is None:
            switch = InputQueuedSwitch(
                cfg, scheduler, collect_service=collect_service
            )
        else:
            switch.reset_run(scheduler)
        _drive(cfg, switch, pattern, None)
        results.append(
            _package_result(cfg, scheduler_name, load, switch, collect_percentiles)
        )
    return results


def run_replicates(
    config: SimConfig,
    scheduler_name: str,
    load: float,
    replicates: int | None = None,
    *,
    seeds: Sequence[int] | None = None,
    traffic: str = "bernoulli",
    traffic_kwargs: dict | None = None,
    collect_service: bool = False,
    collect_percentiles: bool = False,
    faults=None,
    adapter=None,
    admission=None,
    tracer_factory: Callable[[int], object] | None = None,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> list[SimResult]:
    """Simulate R replicates of one (scheduler, load) cell.

    Replicate ``r`` is bit-identical to
    ``run_simulation(config.with_(seed=seeds[r]), scheduler_name, load,
    ...)`` — the execution strategy (columnar, switch-reuse serial, or
    plain serial; see :func:`runs_columnar`) is an implementation
    detail, never part of the experiment definition (sweep cache keys
    ignore it).

    ``seeds`` defaults to ``config.seed + r`` for ``r in
    range(replicates)`` — the sweep engine's replicate seeding. Pass
    explicit seeds to run a subset (e.g. the cache misses of a cell).

    ``tracer_factory`` (replicate index -> tracer) attaches a tracer
    per replicate; like faults/adapters/admission it forces the serial
    path, where traces are the serial traces by construction.
    """
    if seeds is None:
        if replicates is None:
            raise ValueError("pass replicates or explicit seeds")
        if replicates < 1:
            raise ValueError(f"need at least one replicate, got {replicates}")
        seed_list = [config.seed + r for r in range(replicates)]
    else:
        seed_list = [int(s) for s in seeds]
        if not seed_list:
            raise ValueError("seeds must be non-empty")
        if replicates is not None and replicates != len(seed_list):
            raise ValueError(
                f"replicates={replicates} disagrees with {len(seed_list)} seeds"
            )

    features = dict(
        traffic=traffic,
        faults=faults,
        adapter=adapter,
        admission=admission,
        tracer_factory=tracer_factory,
    )
    if runs_columnar(
        scheduler_name, len(seed_list), n_ports=config.n_ports, **features
    ):
        try:
            return ColumnarEngine(
                config,
                scheduler_name,
                load,
                seed_list,
                traffic=traffic,
                traffic_kwargs=traffic_kwargs,
                collect_service=collect_service,
                collect_percentiles=collect_percentiles,
                max_bytes=max_bytes,
            ).run()
        except ColumnarMemoryError:
            # Buffers outgrew the ceiling (at allocation or during
            # queue growth); rerun serially from scratch
            # (bit-identical, just slower).
            pass

    return _run_serial(
        config,
        scheduler_name,
        load,
        seed_list,
        traffic_kwargs=traffic_kwargs,
        collect_service=collect_service,
        collect_percentiles=collect_percentiles,
        **features,
    )
