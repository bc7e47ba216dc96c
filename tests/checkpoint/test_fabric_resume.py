"""Fabric checkpoints: per-shard snapshots at barrier slots resume
bit-identically, for any shard count."""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import CheckpointError, load_checkpoint
from repro.checkpoint.state import encode_value
from repro.fabric import FabricSpec, resume_fabric, run_fabric
from repro.obs.tracer import RingTracer
from repro.sim.config import SimConfig


def _norm(result) -> str:
    return json.dumps(encode_value(result.row()), sort_keys=True)


def _spec(**overrides) -> FabricSpec:
    kwargs = dict(
        m=2, k=2, r=2,
        config=SimConfig(n_ports=4, warmup_slots=10, measure_slots=80, seed=11),
        load=0.9,
    )
    kwargs.update(overrides)
    return FabricSpec(**kwargs)


class TestFabricResume:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_resume_matches_straight_run(self, shards, tmp_path):
        spec = _spec(link_delay=2)
        straight_tracer = RingTracer(1 << 20)
        straight = run_fabric(spec, shards=shards, tracer=straight_tracer)
        ckpt = tmp_path / "fab.ckpt"
        run_fabric(
            spec, shards=shards, tracer=RingTracer(1 << 20),
            checkpoint_path=ckpt, stop_at_slot=45,
        )
        resumed_tracer = RingTracer(1 << 20)
        resumed = resume_fabric(ckpt, tracer=resumed_tracer)
        assert _norm(resumed) == _norm(straight)
        # The shard trace buffers are checkpointed, so the resumed
        # merged trace is the COMPLETE stream, not just the tail.
        assert list(resumed_tracer.events) == list(straight_tracer.events)

    def test_faulted_adaptive_fast_fabric(self, tmp_path):
        spec = _spec(
            stage_faults=((1, 0, (("link_down", ((0, 1, 20, 60),)),)),),
            stage_adapt=((1, 0, (("policy", "adaptive"),)),),
        )
        straight = run_fabric(spec, shards=2)
        ckpt = tmp_path / "fab.ckpt"
        run_fabric(
            spec, shards=2,
            checkpoint_path=ckpt, checkpoint_every=16, stop_at_slot=48,
        )
        assert _norm(resume_fabric(ckpt)) == _norm(straight)

    def test_periodic_checkpoints_land_on_barriers(self, tmp_path):
        spec = _spec(
            link_delay=3,
            config=SimConfig(n_ports=4, warmup_slots=0, measure_slots=64, seed=3),
        )
        straight = run_fabric(spec, shards=2)
        ckpt = tmp_path / "fab.ckpt"
        run_fabric(spec, shards=2, checkpoint_path=ckpt, checkpoint_every=20)
        # Cadence 20 with blocks capped at barriers: the last periodic
        # checkpoint before completion is at slot 60.
        assert load_checkpoint(ckpt)["slot"] == 60
        assert _norm(resume_fabric(ckpt)) == _norm(straight)

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.sim.simulator import run_simulation

        ckpt = tmp_path / "sim.ckpt"
        run_simulation(
            SimConfig(n_ports=4, warmup_slots=0, measure_slots=40, seed=1),
            "islip", 0.7, checkpoint_path=ckpt, stop_at_slot=20,
        )
        with pytest.raises(CheckpointError, match="fabric"):
            resume_fabric(ckpt)

    def test_validation(self, tmp_path):
        spec = _spec()
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_fabric(spec, checkpoint_every=10)
        with pytest.raises(ValueError, match="inline"):
            run_fabric(
                spec, shards=2, backend="process",
                checkpoint_path=tmp_path / "x.ckpt", checkpoint_every=10,
            )
        with pytest.raises(ValueError, match="metrics"):
            from repro.obs.metrics import MetricsRegistry

            run_fabric(
                spec, metrics=MetricsRegistry(),
                checkpoint_path=tmp_path / "x.ckpt", checkpoint_every=10,
            )
