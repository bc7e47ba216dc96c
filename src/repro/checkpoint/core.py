"""Checkpoint payloads for whole simulation runs, and resuming them.

A simulation checkpoint taken at slot ``k`` holds everything needed to
make the remaining slots ``k .. total_slots-1`` *bit-identical* to an
uninterrupted run:

* the **run spec** — every argument :func:`repro.sim.run_simulation`
  needs to rebuild the exact same objects (config fields, scheduler
  name, traffic name + kwargs, fault-plan spec, adapter spec, admission
  watermarks);
* the **component state** — the traffic pattern (including its PCG64
  stream position), the switch and everything hanging off it
  (scheduler pointers and tie-break chains, VOQ/PQ contents, delay
  histograms, adaptive-estimator arrays, admission counters),
  captured by :mod:`repro.checkpoint.state`;
* the **instrument values** of the metrics registry, restored into
  fresh instruments in place;
* the **exporter position** (path, cadence, writes so far) so a soak
  run's snapshot files keep their cadence across the restart.

What is *not* serialised: the tracer. Trace events already written
belong to the first part of the run; a resumed run emits slots
``k..`` into whatever tracer the resumer attaches, and the full trace
is the concatenation of the two — byte-identical to the uninterrupted
trace (property-tested in ``tests/checkpoint/``).

Checkpoints are taken at slot boundaries only (after slot ``k-1``
finished, before slot ``k`` starts), which is why the driver caps its
slot blocks at checkpoint boundaries.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.checkpoint.format import CheckpointError, load_checkpoint
from repro.checkpoint.state import (
    restore_metrics,
    restore_state,
    snapshot_metrics,
    snapshot_state,
)

__all__ = ["make_run_spec", "capture_payload", "resume_simulation"]

#: The ``kind`` tag single-switch simulation payloads carry.
SIMULATION_KIND = "simulation"

def _spec_pairs(spec) -> list | None:
    """``to_spec()`` output as JSON-safe ``[key, value]`` pairs."""
    if spec is None:
        return None
    return [[key, value] for key, value in spec]


def make_run_spec(
    *,
    config,
    scheduler: str,
    load: float,
    traffic: str,
    traffic_kwargs: dict | None,
    collect_service: bool,
    collect_percentiles: bool,
    plan=None,
    adapter=None,
    admission=None,
    has_metrics: bool = False,
    checkpoint_every: int | None = None,
) -> dict:
    """The JSON-safe description of a run, sufficient to rebuild it.

    ``plan``/``adapter``/``admission`` are the *resolved* objects (or
    ``None``); their wire specs are what goes into the checkpoint, so
    resume goes through the same ``make_*`` constructors as the
    original call.
    """
    return {
        "config": dataclasses.asdict(config),
        "scheduler": scheduler,
        "load": load,
        "traffic": traffic,
        "traffic_kwargs": dict(traffic_kwargs or {}),
        "collect_service": bool(collect_service),
        "collect_percentiles": bool(collect_percentiles),
        "faults": _spec_pairs(plan.to_spec()) if plan is not None else None,
        "adapt": _spec_pairs(adapter.to_spec()) if adapter is not None else None,
        "admission": (
            [admission.low, admission.high] if admission is not None else None
        ),
        "has_metrics": bool(has_metrics),
        "checkpoint_every": checkpoint_every,
    }


def capture_payload(
    run_spec: dict,
    slot: int,
    pattern,
    switch,
    metrics=None,
    exporter=None,
) -> dict:
    """Snapshot a running simulation into a checkpoint payload.

    ``slot`` is the *next* slot to execute: slots ``0..slot-1`` have
    run to completion, including their exporter ticks.
    """
    exporter_state = None
    if exporter is not None:
        exporter_state = {
            "path": str(exporter.path),
            "every": exporter.every,
            "fmt": exporter.fmt,
            "writes": exporter.writes,
            "next_due": exporter._next_due,
        }
    return {
        "kind": SIMULATION_KIND,
        "slot": slot,
        "run": run_spec,
        "state": {
            "pattern": snapshot_state(pattern),
            "switch": snapshot_state(switch),
            "metrics": snapshot_metrics(metrics) if metrics is not None else None,
            "exporter": exporter_state,
        },
    }


def rebuild_fault_plan(path: str | Path, spec):
    """The fault plan a checkpoint recorded. A plan this version cannot
    rebuild (one naming a removed field, say) makes the file
    unresumable: :class:`CheckpointError`."""
    from repro.faults.plan import FaultPlan

    try:
        return FaultPlan.from_spec(spec)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} holds a fault plan this version cannot "
            f"rebuild: {exc}"
        ) from None


def resume_simulation(
    path,
    tracer=None,
    metrics=None,
    exporter=None,
    checkpoint_path=None,
    checkpoint_every=None,
    stop_at_slot: int | None = None,
):
    """Continue a checkpointed run to completion (or the next stop).

    Rebuilds the run from the stored spec — same constructors, same
    seeds — restores every component's captured state, and drives the
    remaining slots. The returned :class:`repro.sim.SimResult` is
    bit-identical to what the uninterrupted run would have produced.

    ``tracer`` receives the *remaining* slots' events; the full trace
    of the logical run is the pre-checkpoint trace followed by this
    one. ``metrics`` defaults to a fresh registry when the original
    run had one (restored to the captured instrument values);
    ``exporter`` is rebuilt from the stored position unless an
    explicit one is passed.

    By default the resumed run keeps checkpointing to the *same* file
    at the stored cadence; pass ``checkpoint_path``/``checkpoint_every``
    to redirect or ``stop_at_slot`` to pause again later.

    Raises :class:`CheckpointError` for anything unresumable: a corrupt
    or wrong-version file (via :func:`load_checkpoint`) or a payload of
    the wrong kind.
    """
    from repro.faults.injector import FaultInjector
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.admission import make_admission
    from repro.sim.config import SimConfig
    from repro.sim.simulator import _drive_and_package, build_switch
    from repro.traffic.base import make_traffic

    payload = load_checkpoint(path)
    if payload.get("kind") != SIMULATION_KIND:
        raise CheckpointError(
            f"checkpoint {path} holds a {payload.get('kind')!r} payload, "
            f"not a {SIMULATION_KIND!r} one"
        )
    run = payload["run"]
    state = payload["state"]
    start_slot = int(payload["slot"])

    config = SimConfig(**run["config"])
    try:
        pattern = make_traffic(
            run["traffic"],
            config.n_ports,
            run["load"],
            seed=config.seed,
            **run["traffic_kwargs"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path} holds traffic this version cannot "
            f"rebuild: {exc.args[0] if exc.args else exc}"
        ) from None

    injector = None
    if run["faults"] is not None:
        plan = rebuild_fault_plan(path, run["faults"])
        if not plan.is_null:
            injector = FaultInjector(plan, config.n_ports, seed=config.seed)

    adapter = None
    if run["adapt"] is not None:
        from repro.adapt.adapter import make_adapter

        adapter = make_adapter(run["adapt"])
        if adapter is not None:
            adapter.reset()

    admission = make_admission(run["admission"])

    if metrics is None and run["has_metrics"]:
        metrics = MetricsRegistry()

    exporter_state = state.get("exporter")
    if exporter is not None:
        from repro.obs.serve import effective_exporter

        exporter = effective_exporter(exporter)
    elif exporter_state is not None:
        from repro.obs.serve import SnapshotExporter

        if metrics is None:
            metrics = MetricsRegistry()
        exporter = SnapshotExporter(
            metrics,
            Path(exporter_state["path"]),
            every=exporter_state["every"],
            fmt=exporter_state["fmt"],
        )
    if exporter is not None and metrics is None:
        metrics = exporter.registry

    switch = build_switch(
        config,
        run["scheduler"],
        collect_service=run["collect_service"],
        seed=config.seed,
        tracer=tracer,
        metrics=metrics,
        injector=injector,
        adapter=adapter,
        admission=admission,
    )

    restore_state(pattern, state["pattern"])
    restore_state(switch, state["switch"])
    if metrics is not None and state["metrics"] is not None:
        restore_metrics(metrics, state["metrics"])
    if exporter is not None and exporter_state is not None:
        exporter.writes = exporter_state["writes"]
        exporter._next_due = exporter_state["next_due"]

    if checkpoint_path is None:
        checkpoint_path = str(path)
        if checkpoint_every is None:
            checkpoint_every = run.get("checkpoint_every")

    run_spec = dict(run, checkpoint_every=checkpoint_every)
    return _drive_and_package(
        config=config,
        scheduler_name=run["scheduler"],
        load=run["load"],
        switch=switch,
        pattern=pattern,
        exporter=exporter,
        metrics=metrics,
        collect_percentiles=run["collect_percentiles"],
        start_slot=start_slot,
        run_spec=run_spec,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        stop_at_slot=stop_at_slot,
    )
