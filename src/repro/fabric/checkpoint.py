"""Fabric checkpoint/resume: per-shard snapshots at barrier slots.

The sharded engine advances in ``link_delay``-slot blocks, exchanging
boundary messages at each barrier — which makes the barrier the natural
(and only) checkpoint site: every shard's calendars are settled and the
complete in-flight state is exactly the per-shard snapshots plus the
undelivered boundary messages. A fabric checkpoint therefore captures

* one :meth:`~repro.fabric.sim.FabricShard.snapshot` per shard
  (switches, queues, RNG streams, routers, statistics, buffered trace
  events), and
* the inter-shard messages collected at the barrier but not yet fed
  into the receiving shards' calendars.

Same envelope, checksum, and bit-identity contract as simulation
checkpoints (`docs/CHECKPOINT.md`); the payload ``kind`` is
``"fabric"``. Checkpointing runs on the inline engines (``shards=1``
included); the process backend and live metrics/exporters are not
supported with checkpointing.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.checkpoint.format import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.checkpoint.core import rebuild_fault_plan
from repro.checkpoint.state import decode_value, encode_value
from repro.fabric.spec import FabricSpec
from repro.sim.config import SimConfig

__all__ = ["make_fabric_run_spec", "capture_fabric_payload", "resume_fabric"]


def _deep_tuple(value):
    if isinstance(value, list):
        return tuple(_deep_tuple(item) for item in value)
    return value


def _spec_to_wire(spec: FabricSpec) -> dict:
    return dataclasses.asdict(spec)


def _spec_from_wire(wire: dict) -> FabricSpec:
    wire = dict(wire)
    config = SimConfig(**wire.pop("config"))
    return FabricSpec(
        config=config,
        **{name: _deep_tuple(value) for name, value in wire.items()},
    )


def make_fabric_run_spec(
    *,
    spec: FabricSpec,
    shards: int,
    collect_percentiles: bool,
    collect_flows: bool,
    tracing: bool,
    checkpoint_every: int | None,
) -> dict:
    """The JSON recipe a fabric resume rebuilds its engines from."""
    return {
        "spec": _spec_to_wire(spec),
        "shards": shards,
        "collect_percentiles": collect_percentiles,
        "collect_flows": collect_flows,
        "tracing": tracing,
        "checkpoint_every": checkpoint_every,
    }


def capture_fabric_payload(
    run_spec: dict,
    slot: int,
    engines: list,
    inbound_deliveries: list[list[tuple]],
    inbound_credits: list[list[tuple]],
) -> dict:
    """One barrier-slot capture of the whole fabric."""
    return {
        "kind": "fabric",
        "slot": slot,
        "run": run_spec,
        "state": {
            "shards": [engine.snapshot() for engine in engines],
            "inbound_deliveries": encode_value(inbound_deliveries),
            "inbound_credits": encode_value(inbound_credits),
        },
    }


def resume_fabric(
    path: str | Path,
    *,
    tracer=None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int | None = None,
    stop_at_slot: int | None = None,
):
    """Rebuild a checkpointed fabric run and drive it to completion.

    Returns the same :class:`~repro.fabric.sim.FabricResult` the
    uninterrupted run would have produced. ``tracer`` receives the
    *full* merged trace — the buffered events of the checkpointed
    prefix plus everything after the resume — when the original run
    was traced. By default the resumed run keeps checkpointing to
    ``path`` at the stored cadence.
    """
    from repro.fabric.sim import FabricShard, _drive_blocks, _merge_harvests

    payload = load_checkpoint(path)
    if payload.get("kind") != "fabric":
        raise CheckpointError(
            f"checkpoint {path} holds kind {payload.get('kind')!r}, "
            "expected 'fabric'"
        )
    run = payload["run"]
    for _, _, plan in run["spec"].get("stage_faults", ()):
        rebuild_fault_plan(path, _deep_tuple(plan))
    spec = _spec_from_wire(run["spec"])
    shards = run["shards"]
    engines = [
        FabricShard(
            spec,
            shard_id,
            shards,
            collect_flows=run["collect_flows"],
            tracing=run["tracing"],
        )
        for shard_id in range(shards)
    ]
    state = payload["state"]
    for engine, snapshot in zip(engines, state["shards"]):
        engine.restore(snapshot)
    inbound_d = decode_value(state["inbound_deliveries"])
    inbound_c = decode_value(state["inbound_credits"])

    if checkpoint_path is None:
        checkpoint_path = str(path)
        if checkpoint_every is None:
            checkpoint_every = run["checkpoint_every"]
    run_spec = dict(run, checkpoint_every=checkpoint_every)

    harvests = _drive_blocks(
        spec,
        engines,
        start_slot=payload["slot"],
        inbound_d=inbound_d,
        inbound_c=inbound_c,
        run_spec=run_spec,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        stop_at_slot=stop_at_slot,
    )
    return _merge_harvests(spec, harvests, tracer, run["collect_percentiles"])


def write_fabric_checkpoint(
    path: str | Path,
    run_spec: dict,
    slot: int,
    engines: list,
    inbound_deliveries,
    inbound_credits,
) -> None:
    save_checkpoint(
        path,
        capture_fabric_payload(
            run_spec, slot, engines, inbound_deliveries, inbound_credits
        ),
    )
