"""Checkpoints of plans and layouts an earlier release wrote.

``checkpoint_v3_delay.json`` pauses a lossy ``lcf_dist_rr`` run (n=4,
seed 5, load 0.9) under a plan that also asked for one-iteration message
delay, which is no longer modelled. It is a version-3 file, refused
with :class:`CheckpointError` before its plan is read, and the three
checkpoint-aware CLIs exit 2 with one line. A current-version fabric
checkpoint whose stage plan asks for delay is refused too.

Word-tuple copies of the request masks (``row_words``/``col_words``,
written past 64 ports by an earlier VOQ set) are inert on restore.

``checkpoint_v4_wfront.json`` pauses a plain ``wfront`` run (n=8, seed 7,
load 0.9, 20+100 slots, at slot 60) written before the wavefront arbiter
had a bitset kernel: its scheduler is a ``WrappedWaveFront`` and its
switch never took the fast loop. It resumes onto
:class:`~repro.fastpath.wavefront.FastWrappedWaveFront` and the fast
loop, to the uninterrupted run's row.

Version-4 files written while ``BernoulliUniform`` had a ``batch`` knob
carry its ``batch`` and ``_pending`` fields; resume skips both. A file
whose traffic arguments no longer build a pattern is refused.

``checkpoint_v4_loss_filter.json`` pauses a lossy ``lcf_central_rr`` run
(n=4, seed 3, load 0.9, request loss 0.3, 10+40 slots, at slot 30)
written while request loss was a wrapper around the scheduler: the
switch's scheduler is a ``FastRequestLossFilter`` holding the kernel.
The switch loses requests itself now and its scheduler is the bare
kernel, which has nothing to restore the wrapped state into, so the
file is refused with :class:`CheckpointError` and ``lcf-trace
--resume`` exits 2 with one line.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointError, load_checkpoint, resume_simulation
from repro.checkpoint.format import save_checkpoint
from repro.fabric import FabricSpec, resume_fabric, run_fabric
from repro.fastpath.wavefront import FastWrappedWaveFront
from repro.faults import FaultPlan
from repro.sim import simulator
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

DATA = Path(__file__).resolve().parent.parent / "data"
DELAY = DATA / "checkpoint_v3_delay.json"
WFRONT = DATA / "checkpoint_v4_wfront.json"
LOSS_FILTER = DATA / "checkpoint_v4_loss_filter.json"

CHECKPOINT_CLIS = ["repro.obs.cli", "repro.faults.cli", "repro.adapt.cli"]


def test_delay_file_is_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="is version 3"):
        resume_simulation(DELAY, checkpoint_path=tmp_path / "resumed.ckpt")


@pytest.mark.parametrize("module", CHECKPOINT_CLIS)
def test_delay_file_exits_2_with_one_line(module, capsys):
    main = importlib.import_module(module).main
    assert main(["--resume", str(DELAY)]) == 2
    err = capsys.readouterr().err.strip()
    assert "is version 3" in err and len(err.splitlines()) == 1


def test_fabric_stage_plan_with_delay_is_rejected(tmp_path):
    spec = FabricSpec(
        m=2, k=2, r=2,
        config=SimConfig(n_ports=4, warmup_slots=10, measure_slots=40, seed=11),
        load=0.9,
        stage_faults=((1, 0, FaultPlan.message_loss(0.2).to_spec()),),
    )
    path = tmp_path / "fab.ckpt"
    run_fabric(spec, shards=1, checkpoint_path=path, stop_at_slot=20)
    payload = load_checkpoint(path)
    stage, index, plan = payload["run"]["spec"]["stage_faults"][0]
    payload["run"]["spec"]["stage_faults"][0] = [stage, index, plan + [["delay", 0.3]]]
    save_checkpoint(path, payload)
    with pytest.raises(CheckpointError, match="delay"):
        resume_fabric(path)


def test_wide_file_with_word_tuples_resumes_to_the_uninterrupted_result(tmp_path):
    config = SimConfig(n_ports=65, warmup_slots=10, measure_slots=40, seed=5)
    straight = run_simulation(config, "lcf_central_rr", 0.9)
    path = tmp_path / "wide.ckpt"
    run_simulation(
        config, "lcf_central_rr", 0.9, checkpoint_path=path, stop_at_slot=25
    )
    # Put back the word tuples an earlier release wrote next to the
    # masks: two 64-bit words per port, LSB-first.
    payload = load_checkpoint(path)
    voqs = payload["state"]["switch"]["voqs"]["state"]
    low = (1 << 64) - 1
    for side in ("row", "col"):
        words = [[mask & low, mask >> 64] for mask in voqs[f"{side}_masks"]]
        assert any(high for _, high in words)  # bits past 63 are set
        voqs[f"{side}_words"] = words
    save_checkpoint(path, payload)
    resumed = resume_simulation(path, checkpoint_path=tmp_path / "resumed.ckpt")
    assert resumed.row() == straight.row()


def test_reference_wfront_file_resumes_onto_the_kernel(tmp_path, monkeypatch):
    payload = load_checkpoint(WFRONT)
    stored = payload["state"]["switch"]
    assert stored["scheduler"]["cls"] == "WrappedWaveFront"
    assert stored["_fast_slot"] is False
    config = SimConfig(**payload["run"]["config"])
    straight = run_simulation(config, "wfront", payload["run"]["load"])

    built = []
    build_switch = simulator.build_switch

    def recording_build_switch(*args, **kwargs):
        built.append(build_switch(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(simulator, "build_switch", recording_build_switch)
    resumed = resume_simulation(WFRONT, checkpoint_path=tmp_path / "resumed.ckpt")
    assert resumed.row() == straight.row()
    (switch,) = built
    assert type(switch.scheduler) is FastWrappedWaveFront


@pytest.mark.parametrize("name", ["checkpoint_v4_wfront.json", "checkpoint_v4_mirror.json"])
def test_retired_batch_fields_are_skipped_on_resume(name, tmp_path, monkeypatch):
    from repro.traffic import base

    assert {"batch", "_pending"} <= set(load_checkpoint(DATA / name)["state"]["pattern"])
    patterns = []
    make_traffic = base.make_traffic

    def recording_make_traffic(*args, **kwargs):
        patterns.append(make_traffic(*args, **kwargs))
        return patterns[-1]

    monkeypatch.setattr(base, "make_traffic", recording_make_traffic)
    resume_simulation(DATA / name, checkpoint_path=tmp_path / "resumed.ckpt")
    (pattern,) = patterns
    assert not hasattr(pattern, "batch") and not hasattr(pattern, "_pending")


def test_file_whose_traffic_no_longer_builds_is_rejected(tmp_path):
    payload = load_checkpoint(WFRONT)
    payload["run"]["traffic_kwargs"] = {"batch": 4}
    path = tmp_path / "batched.ckpt"
    save_checkpoint(path, payload)
    with pytest.raises(CheckpointError, match="traffic this version cannot rebuild"):
        resume_simulation(path)


def test_loss_filter_file_is_refused(tmp_path):
    stored = load_checkpoint(LOSS_FILTER)["state"]["switch"]["scheduler"]
    assert stored["cls"] == "FastRequestLossFilter"
    with pytest.raises(CheckpointError, match="nothing to restore it into"):
        resume_simulation(LOSS_FILTER, checkpoint_path=tmp_path / "resumed.ckpt")


def test_loss_filter_file_exits_2_with_one_line(tmp_path, capsys):
    from repro.obs import cli

    path = tmp_path / "lossy.ckpt"
    path.write_bytes(LOSS_FILTER.read_bytes())
    assert cli.main(["--resume", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("lcf-trace: ") and len(err.splitlines()) == 1
    assert path.read_bytes() == LOSS_FILTER.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lossy.ckpt"]
