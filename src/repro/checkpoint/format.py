"""The on-disk checkpoint envelope: versioned, checksummed, atomic.

A checkpoint file is one JSON document::

    {
      "format": "repro-checkpoint",
      "version": 4,
      "checksum": "<sha256 of the canonical payload JSON>",
      "payload": { ... }
    }

``format`` and ``version`` make the file self-identifying; the
checksum is computed over the *canonical* payload rendering
(``sort_keys=True``, compact separators), so any truncation,
bit-flip, or hand edit is detected at load time. Writes go through
:func:`repro.ioutil.atomic_write_text` — a kill mid-write leaves the
previous checkpoint (or nothing), never a torn file.

Every failure mode — missing file, unparseable JSON, wrong format
name, unknown version, checksum mismatch — raises
:class:`CheckpointError`, which the CLIs map to exit status 2. A
corrupt checkpoint is never silently resumed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.ioutil import atomic_write_text

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "payload_checksum",
    "save_checkpoint",
    "load_checkpoint",
]

#: The ``format`` field every checkpoint file must carry.
CHECKPOINT_FORMAT = "repro-checkpoint"

#: Bump when the payload schema changes incompatibly. Loaders reject
#: any other version instead of guessing — the golden-format gate
#: (``tools/check_checkpoint_format.py``) makes the bump deliberate.
#: Version 2: the switch's live delay state is an exact
#: ``DelayHistogram`` (version 1 carried P² quantile markers).
#: Version 3: run specs no longer carry a ``fast`` flag (the scheduler
#: implementation is chosen by the build, not recorded per run).
#: Version 4: every latency accumulator is an exact ``DelayHistogram``
#: (version 3 carried floating-point running moments and per-packet
#: sample lists). A version-3 switch's latency state does not fit a
#: histogram, so version-3 files are refused up front like every other
#: version rather than failing midway through a restore.
CHECKPOINT_VERSION = 4


class CheckpointError(Exception):
    """A checkpoint file is missing, truncated, corrupt, or incompatible."""


def _canonical(payload: dict) -> str:
    """The canonical payload rendering the checksum is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: dict) -> str:
    """SHA-256 hex digest of the canonical payload JSON."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def save_checkpoint(path: str | Path, payload: dict) -> Path:
    """Write ``payload`` to ``path`` inside the versioned envelope.

    The write is atomic (temp file + rename); the function returns the
    path written. The payload must be JSON-serialisable — use
    :mod:`repro.checkpoint.state` to encode component state.
    """
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "checksum": payload_checksum(payload),
        "payload": payload,
    }
    path = Path(path)
    atomic_write_text(path, json.dumps(envelope, sort_keys=True))
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Read, validate, and return the payload of a checkpoint file.

    Raises :class:`CheckpointError` on any integrity problem; never
    returns a payload whose checksum does not verify.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated or corrupt): {exc}"
        ) from exc
    if not isinstance(envelope, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {envelope.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} is version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION} only"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} has no payload object")
    expected = envelope.get("checksum")
    actual = payload_checksum(payload)
    if expected != actual:
        raise CheckpointError(
            f"checkpoint {path} failed its checksum (stored {expected!r}, "
            f"computed {actual!r}) — refusing to resume from corrupt state"
        )
    return payload
