"""Simulation driver: builds the right switch for a scheduler name, runs
warmup + measurement, and packages the statistics.

This is the function behind every Figure 12 data point::

    result = run_simulation(SimConfig(), "lcf_central", load=0.8)
    print(result.mean_latency)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.registry import LOSSY_PROTOCOL_NAMES, make_scheduler
from repro.core.base import IterativeScheduler, Scheduler
from repro.fastpath.registry import make_fast_scheduler, uses_fast_kernel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.estimators import DelayHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.admission import make_admission
from repro.sim.config import SimConfig
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.fifo_switch import FIFOSwitch
from repro.sim.outbuf import OutputBufferedSwitch
from repro.traffic.base import TrafficPattern, make_traffic

#: Slots per driver block — large enough to amortise per-block overhead,
#: small enough that a block's arrival vectors stay cache-resident.
_SLOT_BLOCK = 64


@dataclass
class SimResult:
    """Statistics for one (scheduler, load) simulation point."""

    scheduler: str
    load: float
    config: SimConfig
    mean_latency: float
    std_latency: float
    min_latency: float
    max_latency: float
    offered: int
    forwarded: int
    dropped: int
    #: Packets forwarded per output per slot over the measurement window.
    throughput: float
    #: Latency percentiles {50: ..., 90: ..., 99: ...} when collected.
    percentiles: dict[float, float] = field(default_factory=dict)
    #: Per-pair grant counts when collected (None otherwise).
    service_counts: np.ndarray | None = None
    #: Arrivals discarded by admission control (0 when none attached).
    shed: int = 0
    #: The measurement window's exact delay histogram, which every
    #: latency field above is read from; merging results adds these.
    #: Not part of ``row()`` or ``==``.
    delays: DelayHistogram | None = field(default=None, compare=False, repr=False)

    @property
    def loss_rate(self) -> float:
        """Fraction of offered packets dropped during measurement."""
        return self.dropped / self.offered if self.offered else 0.0

    def relative_to(self, reference: "SimResult") -> float:
        """Latency relative to a reference result (the Figure 12b transform)."""
        if not reference.mean_latency or math.isnan(reference.mean_latency):
            return math.nan
        return self.mean_latency / reference.mean_latency

    def row(self) -> dict[str, float | str | int]:
        """Flat dict for CSV emission.

        Includes ``loss_rate`` and one ``p<q>`` column per collected
        percentile (e.g. ``p50``/``p90``/``p99``), matching what
        ``docs/API.md`` documents for the Figure 12 exports.
        """
        row: dict[str, float | str | int] = {
            "scheduler": self.scheduler,
            "load": self.load,
            "mean_latency": self.mean_latency,
            "std_latency": self.std_latency,
            "max_latency": self.max_latency,
            "throughput": self.throughput,
            "offered": self.offered,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "shed": self.shed,
            "loss_rate": self.loss_rate,
        }
        for percentile in sorted(self.percentiles):
            row[f"p{percentile:g}"] = self.percentiles[percentile]
        return row


def latency_fields(delays: DelayHistogram, percentiles: bool) -> dict:
    """The :class:`SimResult` latency fields read off a delay histogram
    (``percentiles`` stays empty unless asked for)."""
    return {
        "mean_latency": delays.mean,
        "std_latency": delays.std,
        "min_latency": delays.min,
        "max_latency": delays.max,
        "percentiles": delays.percentiles() if percentiles else {},
    }


def make_crossbar_scheduler(
    name: str,
    n: int,
    *,
    iterations: int = IterativeScheduler.DEFAULT_ITERATIONS,
    seed: int = 0,
    injector: FaultInjector | None = None,
) -> Scheduler:
    """The scheduler every crossbar simulator builds for a registry name.

    Names with a :mod:`repro.fastpath` kernel get that bitset kernel and
    every other name its reference implementation. The kernels are
    bit-identical to the references (property-tested in
    ``tests/fastpath/``), so which one runs is never the caller's
    choice. Under an injector with message faults the Section 5
    protocol (:data:`~repro.baselines.registry.LOSSY_PROTOCOL_NAMES`)
    holds the injector and loses each request, grant and accept where
    it is sent; every other scheduler's requests are lost in the switch
    (:class:`~repro.sim.crossbar.InputQueuedSwitch`).
    """
    maker = make_fast_scheduler if uses_fast_kernel(name) else make_scheduler
    scheduler = maker(name, n, iterations=iterations, seed=seed)
    if (
        name in LOSSY_PROTOCOL_NAMES
        and injector is not None
        and injector.has_message_faults
    ):
        scheduler.injector = injector
    return scheduler


def build_switch(
    config: SimConfig,
    scheduler_name: str,
    collect_service: bool = False,
    seed: int = 0,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    injector: FaultInjector | None = None,
    adapter=None,
    admission=None,
):
    """Instantiate the switch model matching a registry scheduler name.

    ``tracer``/``metrics`` instrument the VOQ crossbar; the dedicated
    ``fifo`` and ``outbuf`` switch models have no slot pipeline to
    trace, so instrumentation is ignored for them.

    ``injector`` attaches a fault-injection layer: the crossbar enforces
    topology faults and request loss, and the Section 5 protocol plays
    its own lossy control channel (see :func:`make_crossbar_scheduler`).
    The dedicated switch models have neither a control plane nor
    per-port request paths, so faults there are a configuration error
    rather than a silently perfect run.

    ``adapter`` attaches a fault-reaction layer (:mod:`repro.adapt`
    :class:`~repro.adapt.adapter.SchedulingAdapter`), switching the
    crossbar from the informed stance to fault-blind scheduling; like
    faults it is rejected for the dedicated switch models.

    The scheduler comes from :func:`make_crossbar_scheduler`; a bitset
    kernel schedules straight off the crossbar's request bitmasks,
    whatever hooks are attached (see
    :class:`~repro.sim.crossbar.InputQueuedSwitch`).
    """
    if scheduler_name in ("outbuf", "fifo"):
        if injector is not None:
            raise ValueError(
                f"fault injection is not supported by the dedicated "
                f"{scheduler_name!r} switch model"
            )
        if adapter is not None:
            raise ValueError(
                f"adaptive scheduling is not supported by the dedicated "
                f"{scheduler_name!r} switch model"
            )
        if admission is not None:
            raise ValueError(
                f"admission control is not supported by the dedicated "
                f"{scheduler_name!r} switch model"
            )
        if scheduler_name == "outbuf":
            return OutputBufferedSwitch(config)
        return FIFOSwitch(config)
    scheduler = make_crossbar_scheduler(
        scheduler_name,
        config.n_ports,
        iterations=config.iterations,
        seed=seed,
        injector=injector,
    )
    return InputQueuedSwitch(
        config,
        scheduler,
        collect_service=collect_service,
        tracer=tracer,
        metrics=metrics,
        injector=injector,
        adapter=adapter,
        admission=admission,
    )


def _drive(
    config: SimConfig,
    switch,
    pattern: TrafficPattern,
    exporter,
    start_slot: int = 0,
    stop_slot: int | None = None,
    checkpoint_hook=None,
    checkpoint_every: int | None = None,
) -> int:
    """Run slots ``start_slot .. stop_slot-1`` through the switch.

    Slots are driven in blocks (split at the warmup boundary so the
    measuring flag is constant within a block): every switch model
    :func:`build_switch` returns has a ``run_slots`` block body, which
    amortises per-slot Python dispatch, and each block's arrivals come
    from one :meth:`~repro.traffic.base.TrafficPattern.arrivals_block`
    call. That call returns exactly what per-slot ``arrivals()`` calls
    return and leaves the generator where they leave it, so the sample
    path — and therefore every statistic, and every checkpoint taken
    at a block boundary — is identical to per-slot stepping.

    Blocks are additionally capped at ``checkpoint_every`` multiples so
    ``checkpoint_hook(slot)`` always observes a clean slot boundary:
    slots ``0..slot-1`` fully executed, nothing in flight. The hook
    also fires when the drive pauses early at ``stop_slot``; it never
    fires at ``total_slots`` (a finished run has nothing to resume).

    Returns the next slot to execute (== ``stop_slot``).
    """
    run_block = switch.run_slots
    stop = config.total_slots if stop_slot is None else stop_slot
    slot = start_slot
    while slot < stop:
        if slot == config.warmup_slots:
            switch.measuring = True
        end = min(slot + _SLOT_BLOCK, stop)
        if slot < config.warmup_slots < end:
            end = config.warmup_slots
        if checkpoint_every is not None:
            boundary = (slot // checkpoint_every + 1) * checkpoint_every
            if slot < boundary < end:
                end = boundary
        run_block(slot, pattern.arrivals_block(end - slot))
        slot = end
        if exporter is not None:
            exporter.tick(slot - 1)
        if checkpoint_hook is not None and slot < config.total_slots:
            at_cadence = checkpoint_every is not None and slot % checkpoint_every == 0
            if at_cadence or slot == stop:
                checkpoint_hook(slot)
    return slot


def _package_result(
    config: SimConfig,
    scheduler_name: str,
    load: float,
    switch,
    collect_percentiles: bool,
) -> SimResult:
    """Package a driven switch's statistics into a :class:`SimResult`."""
    delays = DelayHistogram(switch.latency.counts)
    service = getattr(switch, "service", None)
    admission = getattr(switch, "admission", None)
    # A warmup-only run (measure_slots=0) measures nothing: throughput
    # is undefined, not a division error.
    port_slots = config.n_ports * config.measure_slots
    return SimResult(
        scheduler=scheduler_name,
        load=load,
        config=config,
        **latency_fields(delays, collect_percentiles),
        offered=switch.offered,
        forwarded=switch.forwarded,
        dropped=switch.dropped,
        throughput=switch.forwarded / port_slots if port_slots else math.nan,
        service_counts=service.counts.copy() if service is not None else None,
        shed=admission.shed_packets if admission is not None else 0,
        delays=delays,
    )


def _drive_and_package(
    *,
    config: SimConfig,
    scheduler_name: str,
    load: float,
    switch,
    pattern: TrafficPattern,
    exporter,
    metrics,
    collect_percentiles: bool,
    start_slot: int,
    run_spec: dict | None,
    checkpoint_path,
    checkpoint_every: int | None,
    stop_at_slot: int | None,
) -> SimResult:
    """Shared back half of :func:`run_simulation` and checkpoint resume.

    Drives the remaining slots (checkpointing along the way when
    enabled), writes the final exporter snapshot only if the run
    actually completed, and packages the statistics. A run paused at
    ``stop_at_slot`` returns its statistics *so far* — the checkpoint
    file, not the partial result, is the authoritative continuation.
    """
    stop = (
        config.total_slots
        if stop_at_slot is None
        else min(int(stop_at_slot), config.total_slots)
    )
    hook = None
    if checkpoint_path is not None:
        from repro.checkpoint.core import capture_payload
        from repro.checkpoint.format import save_checkpoint

        def hook(slot: int) -> None:
            save_checkpoint(
                checkpoint_path,
                capture_payload(run_spec, slot, pattern, switch, metrics, exporter),
            )

    slot = _drive(
        config,
        switch,
        pattern,
        exporter,
        start_slot=start_slot,
        stop_slot=stop,
        checkpoint_hook=hook,
        checkpoint_every=checkpoint_every,
    )
    if exporter is not None and slot >= config.total_slots and config.total_slots:
        exporter.write(config.total_slots - 1)
    return _package_result(config, scheduler_name, load, switch, collect_percentiles)


def run_simulation(
    config: SimConfig,
    scheduler_name: str,
    load: float,
    traffic: str | TrafficPattern = "bernoulli",
    traffic_kwargs: dict | None = None,
    collect_service: bool = False,
    collect_percentiles: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    faults: FaultPlan | dict | tuple | None = None,
    adapter=None,
    exporter=None,
    admission=None,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
    stop_at_slot: int | None = None,
) -> SimResult:
    """Simulate one (scheduler, load) point of the Figure 12 grid.

    ``traffic`` is a registry name (default the paper's uniform
    Bernoulli) or an already-constructed pattern — in the latter case
    ``load`` is informational and the pattern's own state is used.

    ``tracer`` and ``metrics`` attach the :mod:`repro.obs`
    instrumentation to the switch (crossbar schedulers only; see
    :func:`build_switch`). Statistics are unaffected either way — the
    tracer only *observes* the run.

    ``faults`` injects failures: a :class:`repro.faults.FaultPlan`, or
    its ``to_spec()``/dict form as carried by sweep points. The fault
    randomness is keyed by ``config.seed``, so replicates see different
    concrete failures the same way they see different traffic. A plan
    with nothing in it resolves to no injector at all — bit-identical
    to a fault-free run (property-tested).

    ``adapter`` selects the fault stance (:mod:`repro.adapt`): an
    adapter instance, an :class:`~repro.adapt.AdaptConfig`, or the
    dict/spec wire form resolved by
    :func:`~repro.adapt.adapter.make_adapter` (``policy`` key picks
    ``"adaptive"`` or ``"oblivious"``; empty/None means the informed
    default). The adapter is reset before the run so a reused instance
    cannot leak learned state across simulations.

    ``exporter`` attaches a :class:`repro.obs.serve.SnapshotExporter`:
    its ``tick`` runs at driver block boundaries (every ``_SLOT_BLOCK``
    slots at most) and a final snapshot is written when the run ends.
    When no ``metrics`` registry is passed the exporter's own registry
    is attached to the switch, so ``run_simulation(...,
    exporter=SnapshotExporter(MetricsRegistry(), path))`` is all a soak
    run needs. A disabled exporter resolves to ``None`` here — same
    zero-overhead contract as ``effective_tracer``.

    ``admission`` attaches threshold load shedding
    (:mod:`repro.sim.admission`): an
    :class:`~repro.sim.admission.AdmissionController`, a ``(low,
    high)`` watermark pair, or its dict wire form. Crossbar schedulers
    only, like faults and adapters.

    ``checkpoint_path`` enables checkpoint/restore
    (:mod:`repro.checkpoint`): the run's complete state is saved there
    atomically every ``checkpoint_every`` slots, and — when
    ``stop_at_slot`` is set — once more when the run pauses at that
    slot. A paused run returns its statistics so far;
    :func:`repro.checkpoint.resume_simulation` continues it
    bit-identically. Checkpointing requires a registry ``traffic``
    name (an already-built pattern instance cannot be rebuilt from the
    file).
    """
    from repro.obs.serve import effective_exporter

    if checkpoint_path is None and (
        checkpoint_every is not None or stop_at_slot is not None
    ):
        raise ValueError(
            "checkpoint_every/stop_at_slot need a checkpoint_path to save to"
        )
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if stop_at_slot is not None and stop_at_slot < 0:
        raise ValueError(f"stop_at_slot must be >= 0, got {stop_at_slot}")
    if checkpoint_path is not None and isinstance(traffic, TrafficPattern):
        raise ValueError(
            "checkpointing requires a registry traffic name; a pattern "
            "instance cannot be rebuilt from the checkpoint file"
        )

    exporter = effective_exporter(exporter)
    if exporter is not None and metrics is None:
        metrics = exporter.registry

    if isinstance(traffic, TrafficPattern):
        pattern = traffic
    else:
        pattern = make_traffic(
            traffic, config.n_ports, load, seed=config.seed, **(traffic_kwargs or {})
        )

    plan = None
    injector = None
    if faults is not None:
        plan = faults if isinstance(faults, FaultPlan) else FaultPlan.from_spec(faults)
        if not plan.is_null:
            injector = FaultInjector(plan, config.n_ports, seed=config.seed)

    if adapter is not None:
        from repro.adapt.adapter import make_adapter

        adapter = make_adapter(adapter)
        if adapter is not None:
            adapter.reset()

    admission = make_admission(admission)

    switch = build_switch(
        config,
        scheduler_name,
        collect_service=collect_service,
        seed=config.seed,
        tracer=tracer,
        metrics=metrics,
        injector=injector,
        adapter=adapter,
        admission=admission,
    )

    run_spec = None
    if checkpoint_path is not None:
        from repro.checkpoint.core import make_run_spec

        run_spec = make_run_spec(
            config=config,
            scheduler=scheduler_name,
            load=load,
            traffic=traffic,
            traffic_kwargs=traffic_kwargs,
            collect_service=collect_service,
            collect_percentiles=collect_percentiles,
            plan=plan if injector is not None else None,
            adapter=adapter,
            admission=admission,
            has_metrics=metrics is not None,
            checkpoint_every=checkpoint_every,
        )

    return _drive_and_package(
        config=config,
        scheduler_name=scheduler_name,
        load=load,
        switch=switch,
        pattern=pattern,
        exporter=exporter,
        metrics=metrics,
        collect_percentiles=collect_percentiles,
        start_slot=0,
        run_spec=run_spec,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        stop_at_slot=stop_at_slot,
    )
