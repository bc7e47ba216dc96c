"""Crash safety: corrupt checkpoints are rejected, never resumed.

Covers the integrity layer (:mod:`repro.checkpoint.format`): every
tamper mode — truncation, bit flips, version/format forgery, checksum
mismatch — must raise :class:`CheckpointError`; the CLIs must map that
to exit status 2; and :func:`repro.ioutil.atomic_write_text` must never
leave a partial artifact behind.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    payload_checksum,
    resume_simulation,
    save_checkpoint,
)
from repro.ioutil import atomic_write_text
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

#: The golden checkpoint as written by format version 1.
V1_CHECKPOINT = Path(__file__).resolve().parent.parent / "data" / "checkpoint_v1.json"
#: The golden checkpoint as written by format version 2 (its run spec
#: still carries the ``fast`` flag).
V2_CHECKPOINT = V1_CHECKPOINT.with_name("checkpoint_v2.json")
#: A paused lossy run as written by format version 3 (its switch still
#: carries floating-point running moments, not a delay histogram).
V3_CHECKPOINT = V1_CHECKPOINT.with_name("checkpoint_v3_lossy.json")

CHECKPOINT_CLIS = ["repro.obs.cli", "repro.faults.cli", "repro.adapt.cli"]


def _resume_exits_2_with_one_line(module, path, version, capsys):
    import importlib

    main = importlib.import_module(module).main
    assert main(["--resume", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert f"version {version}" in err and len(err.splitlines()) == 1


@pytest.fixture
def checkpoint(tmp_path):
    """A real mid-run checkpoint file to corrupt."""
    path = tmp_path / "run.ckpt"
    config = SimConfig(n_ports=4, warmup_slots=5, measure_slots=45, seed=13)
    run_simulation(
        config, "lcf_central_rr", 0.8, checkpoint_path=path, stop_at_slot=25
    )
    return path


class TestEnvelopeValidation:
    def test_valid_file_loads(self, checkpoint):
        payload = load_checkpoint(checkpoint)
        assert payload["kind"] == "simulation"
        assert payload["slot"] == 25

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    @pytest.mark.parametrize("keep", [0, 1, 10, 100])
    def test_truncated_file(self, checkpoint, keep):
        text = checkpoint.read_text()
        assert keep < len(text)
        checkpoint.write_text(text[:keep])
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint)

    def test_bit_flip_in_payload(self, checkpoint):
        # Flip one digit inside the serialised state; the checksum
        # must catch it even though the JSON still parses.
        envelope = json.loads(checkpoint.read_text())
        envelope["payload"]["slot"] += 1
        checkpoint.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(checkpoint)

    def test_wrong_format_name(self, checkpoint):
        envelope = json.loads(checkpoint.read_text())
        envelope["format"] = "not-a-checkpoint"
        checkpoint.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(checkpoint)

    def test_future_version_rejected(self, checkpoint):
        envelope = json.loads(checkpoint.read_text())
        envelope["version"] = CHECKPOINT_VERSION + 1
        checkpoint.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(checkpoint)

    def test_version_1_file_rejected(self):
        # A real version-1 file (it carries P² quantile markers the
        # current switch no longer has): intact, checksummed, refused.
        with pytest.raises(CheckpointError, match="version 1") as caught:
            load_checkpoint(V1_CHECKPOINT)
        assert "\n" not in str(caught.value)

    def test_version_2_file_rejected(self):
        with pytest.raises(CheckpointError, match="version 2") as caught:
            load_checkpoint(V2_CHECKPOINT)
        assert "\n" not in str(caught.value)

    def test_version_3_file_rejected(self, tmp_path):
        # Its switch carries running moments, which today's delay
        # histogram cannot take: refused before anything is restored.
        with pytest.raises(CheckpointError, match="version 3") as caught:
            resume_simulation(V3_CHECKPOINT, checkpoint_path=tmp_path / "x.ckpt")
        assert "\n" not in str(caught.value)

    def test_non_object_document(self, checkpoint):
        checkpoint.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(checkpoint)

    def test_missing_payload(self, checkpoint):
        checkpoint.write_text(json.dumps(
            {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION}
        ))
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(checkpoint)

    def test_forged_checksum_of_tampered_payload(self, checkpoint):
        # Even a re-checksummed tamper loads only if internally
        # consistent — which it is; this documents that the checksum
        # guards against *corruption*, not malice.
        envelope = json.loads(checkpoint.read_text())
        envelope["payload"]["slot"] = 26
        envelope["checksum"] = payload_checksum(envelope["payload"])
        checkpoint.write_text(json.dumps(envelope))
        assert load_checkpoint(checkpoint)["slot"] == 26

    def test_wrong_kind_rejected_by_resume(self, tmp_path):
        path = save_checkpoint(tmp_path / "x.ckpt", {"kind": "mystery"})
        with pytest.raises(CheckpointError, match="kind"):
            resume_simulation(path)


class TestCLIExitStatus:
    """All three checkpoint-aware CLIs exit 2 on a corrupt file."""

    @pytest.fixture
    def corrupt(self, checkpoint):
        text = checkpoint.read_text()
        checkpoint.write_text(text[: len(text) // 2])
        return str(checkpoint)

    def test_lcf_trace_resume(self, corrupt, capsys):
        from repro.obs.cli import main

        assert main(["--resume", corrupt]) == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_lcf_faults_resume(self, corrupt, capsys):
        from repro.faults.cli import main

        assert main(["--resume", corrupt]) == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_lcf_adapt_resume(self, corrupt, capsys):
        from repro.adapt.cli import main

        assert main(["--resume", corrupt]) == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("module", CHECKPOINT_CLIS)
    def test_version_1_file_exits_2_with_one_line(self, module, capsys):
        _resume_exits_2_with_one_line(module, V1_CHECKPOINT, 1, capsys)

    @pytest.mark.parametrize("module", CHECKPOINT_CLIS)
    def test_version_2_file_exits_2_with_one_line(self, module, capsys):
        _resume_exits_2_with_one_line(module, V2_CHECKPOINT, 2, capsys)

    @pytest.mark.parametrize("module", CHECKPOINT_CLIS)
    def test_version_3_file_exits_2_with_one_line(self, module, capsys):
        _resume_exits_2_with_one_line(module, V3_CHECKPOINT, 3, capsys)


class TestAtomicWrite:
    def test_no_partial_on_failure(self, tmp_path):
        # A failing write leaves the previous file intact and no
        # temp-file litter next to it.
        target = tmp_path / "artifact.json"
        target.write_text("previous good content")
        with pytest.raises(TypeError):
            atomic_write_text(target, object())  # write_text rejects non-str
        assert target.read_text() == "previous good content"
        assert list(tmp_path.iterdir()) == [target]

    def test_save_checkpoint_overwrites_atomically(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"kind": "simulation", "slot": 1})
        save_checkpoint(path, {"kind": "simulation", "slot": 2})
        assert load_checkpoint(path)["slot"] == 2
        assert list(tmp_path.iterdir()) == [path]

    def test_unserialisable_payload_keeps_previous(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"kind": "simulation", "slot": 7})
        with pytest.raises(TypeError):
            save_checkpoint(path, {"bad": object()})
        assert load_checkpoint(path)["slot"] == 7
        assert list(tmp_path.iterdir()) == [path]
