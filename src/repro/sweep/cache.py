"""On-disk JSON result cache for sweep points.

Each completed simulation point is written to its own file under the
cache root, named by :func:`point_key` — a SHA-256 over the canonical
JSON of everything that determines the simulation's output: every
``SimConfig`` field (with the *effective* per-replicate seed), the
scheduler name, the load, and the traffic pattern with its parameters.
Identical inputs always map to the same file, so

* re-running a finished sweep is pure cache reads (seconds, not hours);
* an interrupted sweep resumes where it stopped — points are written
  as they complete, one file each, with atomic rename;
* changing any input (a load, the port count, the seed) misses cleanly.

``CACHE_VERSION`` is folded into the key; bump it whenever simulator
semantics change so stale entries are ignored rather than trusted.
Corrupt or truncated files (e.g. from a kill mid-write of a non-atomic
external copy) are treated as misses.

An entry stores a result's delay-histogram counts, not its latency
summaries: a cache hit rebuilds every latency field from the counts,
so it merges with other shards exactly like a freshly computed result.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.obs.estimators import DelayHistogram
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult, latency_fields
from repro.sweep.spec import SweepPoint

#: Bump when simulator semantics change; folded into every cache key.
#: Version 2: entries store delay-histogram counts instead of latency
#: summaries.
CACHE_VERSION = 2


def point_key(config: SimConfig, point: SweepPoint) -> str:
    """Stable content hash identifying one simulation point.

    ``config.seed`` is replaced by the point's effective replicate seed,
    so the same spec hashed replicate-by-replicate yields distinct keys
    while a direct ``run_simulation`` call with that seed matches.
    """
    payload = {
        "version": CACHE_VERSION,
        "config": asdict(config) | {"seed": point.seed},
        "scheduler": point.scheduler,
        "load": point.load,
        "traffic": point.traffic,
        "traffic_kwargs": sorted([key, repr(value)] for key, value in point.traffic_kwargs),
    }
    if point.fault_kwargs:
        # Folded in only when non-empty so fault-free points keep the
        # cache keys they had before fault injection existed.
        payload["faults"] = sorted(
            [key, repr(value)] for key, value in point.fault_kwargs
        )
    if getattr(point, "adapt_kwargs", ()):
        # Same deal for the scheduling stance — non-empty even at zero
        # faults (a starvation-mode adapter can act without any), so it
        # is always folded in when present.
        payload["adapt"] = sorted(
            [key, repr(value)] for key, value in point.adapt_kwargs
        )
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_to_payload(result: SimResult) -> dict:
    """JSON-serialisable form of a :class:`SimResult` (lossless)."""
    return {
        "scheduler": result.scheduler,
        "load": result.load,
        "config": asdict(result.config),
        "delays": result.delays.counts,
        "percentiles": bool(result.percentiles),
        "offered": result.offered,
        "forwarded": result.forwarded,
        "dropped": result.dropped,
        "throughput": result.throughput,
        "service_counts": (
            result.service_counts.tolist() if result.service_counts is not None else None
        ),
        "shed": result.shed,
    }


def payload_to_result(payload: dict) -> SimResult:
    """Inverse of :func:`result_to_payload`."""
    service = payload["service_counts"]
    delays = DelayHistogram(payload["delays"])
    return SimResult(
        scheduler=payload["scheduler"],
        load=payload["load"],
        config=SimConfig(**payload["config"]),
        **latency_fields(delays, payload["percentiles"]),
        offered=payload["offered"],
        forwarded=payload["forwarded"],
        dropped=payload["dropped"],
        throughput=payload["throughput"],
        service_counts=np.asarray(service, dtype=np.int64) if service is not None else None,
        shed=payload["shed"],
        delays=delays,
    )


class ResultCache:
    """Directory of one-JSON-file-per-point simulation results."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> SimResult | None:
        """Cached result for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            result = payload_to_result(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> Path:
        """Persist one point atomically (write temp file, then rename)."""
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        # allow_nan: empty measurement windows legitimately produce NaN
        # latencies; Python's json round-trips them (non-strict JSON).
        tmp.write_text(json.dumps(result_to_payload(result), allow_nan=True))
        tmp.replace(path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached point; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
