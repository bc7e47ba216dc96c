"""The golden checkpoint pin: regenerating it must be a byte no-op.

Drives ``tools/check_checkpoint_format.py`` the same way CI does. A
failure here means the on-disk checkpoint schema drifted — re-golden
with ``--update`` only when the change is deliberate, and bump
``CHECKPOINT_VERSION`` when it breaks old files.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GOLDEN = REPO_ROOT / "tests" / "data" / "golden_checkpoint.json"
#: The same pinned run as written by a v4 VOQ set that still kept a
#: numpy occupancy mirror (``_occupancy``) next to its deques.
V4_MIRROR = GOLDEN.with_name("checkpoint_v4_mirror.json")


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_checkpoint_format",
        REPO_ROOT / "tools" / "check_checkpoint_format.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_checkpoint_matches(capsys):
    tool = _load_tool()
    assert tool.main([]) == 0
    assert "matches" in capsys.readouterr().out


def test_golden_is_valid_envelope():
    from repro.checkpoint import CHECKPOINT_VERSION, load_checkpoint

    payload = load_checkpoint(GOLDEN)
    envelope = json.loads(GOLDEN.read_text())
    assert envelope["version"] == CHECKPOINT_VERSION
    assert payload["kind"] == "simulation"
    # The pin exercises every serialised subsystem at once.
    run = payload["run"]
    assert run["faults"], "golden run must be faulted"
    assert run["adapt"], "golden run must be adaptive"
    assert run["admission"], "golden run must be admission-controlled"
    assert run["has_metrics"], "golden run must carry metrics"
    assert payload["state"]["metrics"], "metrics snapshot must be present"


def test_golden_resumes_to_completion(tmp_path):
    # The pinned file is not just stable bytes — it is a *live*
    # checkpoint that resumes and finishes.
    import shutil

    from repro.checkpoint import resume_simulation
    from repro.obs.metrics import MetricsRegistry

    working = tmp_path / "golden.ckpt"
    shutil.copy(GOLDEN, working)
    result = resume_simulation(working, metrics=MetricsRegistry())
    assert result.forwarded > 0
    assert result.shed >= 0


def _pinned_row():
    """The pinned run's row, uninterrupted."""
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.config import SimConfig
    from repro.sim.simulator import run_simulation

    tool = _load_tool()
    config = SimConfig(
        n_ports=tool.N_PORTS,
        warmup_slots=tool.WARMUP,
        measure_slots=tool.MEASURE,
        seed=tool.SEED,
    )
    return run_simulation(
        config,
        tool.SCHEDULER,
        tool.LOAD,
        faults=tool.FAULT_SPEC,
        adapter=tool.ADAPT_SPEC,
        admission=tool.ADMISSION,
        metrics=MetricsRegistry(),
    ).row()


def test_golden_resumes_to_the_uninterrupted_row(tmp_path):
    import shutil

    from repro.checkpoint import resume_simulation
    from repro.obs.metrics import MetricsRegistry

    working = tmp_path / "golden.ckpt"
    shutil.copy(GOLDEN, working)
    resumed = resume_simulation(working, metrics=MetricsRegistry())
    assert resumed.row() == _pinned_row()


def test_v4_file_with_occupancy_mirror_resumes_to_the_uninterrupted_row(tmp_path):
    # The mirror is restored as an attribute nothing reads: the deques
    # and masks it duplicated carry the whole queue state. The file's
    # pattern also carries the retired ``batch``/``_pending`` fields.
    import shutil

    from repro.checkpoint import resume_simulation
    from repro.obs.metrics import MetricsRegistry

    working = tmp_path / "v4_mirror.ckpt"
    shutil.copy(V4_MIRROR, working)
    resumed = resume_simulation(working, metrics=MetricsRegistry())
    assert resumed.row() == _pinned_row()


def test_divergence_reports_diff(tmp_path, capsys, monkeypatch):
    tool = _load_tool()
    tampered = tmp_path / "golden_checkpoint.json"
    envelope = json.loads(GOLDEN.read_text())
    envelope["payload"]["slot"] += 1
    tampered.write_text(json.dumps(envelope, sort_keys=True))
    monkeypatch.setattr(tool, "GOLDEN", tampered)
    monkeypatch.setattr(tool, "REPO_ROOT", tmp_path)
    assert tool.main([]) == 1
    assert "DIVERGED" in capsys.readouterr().err
