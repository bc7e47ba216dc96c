"""Scrapeable metrics snapshots: render, export, and serve a registry.

Three pieces, layered:

* :class:`MetricsSnapshot` — a point-in-time capture of a
  :class:`~repro.obs.metrics.MetricsRegistry`, renderable as
  Prometheus/OpenMetrics text (:meth:`~MetricsSnapshot.to_openmetrics`)
  or JSON (:meth:`~MetricsSnapshot.to_json`). Histograms render with
  *cumulative* buckets ending in an explicit ``le="+Inf"`` bucket equal
  to ``_count``, which is what makes the output OpenMetrics-conformant
  (validated by ``tools/check_metrics_snapshot.py``).
* :class:`SnapshotExporter` — writes periodic snapshots to disk during
  :func:`~repro.sim.simulator.run_simulation`, atomically via
  :func:`repro.ioutil.atomic_write_text` so a scraper polling the file
  never reads a torn write. Same contract as
  :func:`~repro.obs.tracer.effective_tracer`: a ``None`` or disabled
  exporter resolves to ``None`` (:func:`effective_exporter`) and the
  simulation pays nothing (gated in ``benchmarks/bench_obs_overhead.py``).
* :class:`ScrapeEndpoint` — a stdlib :mod:`http.server` endpoint
  serving ``GET /metrics`` (text format) and ``GET /metrics.json`` from
  a live registry, for watching long soak runs from a browser or a
  Prometheus scrape job. Runs on a daemon thread; no third-party
  dependencies.

Every export path calls :meth:`MetricsRegistry.collect` (through
:meth:`MetricsSnapshot.capture`), so collector-backed gauges — the live
rate matrix, exact delay percentiles, active suspects — are refreshed
at scrape time and never on the hot path. A switch on the fast slot
loop adds its counters and histograms to the registry once per driver
block, so a scrape between exporter ticks may trail the simulation by
up to :data:`~repro.sim.simulator._SLOT_BLOCK` slots.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.ioutil import atomic_write_text
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "MetricsSnapshot",
    "SnapshotExporter",
    "ScrapeEndpoint",
    "effective_exporter",
    "render_openmetrics",
    "render_json",
    "sanitize_metric_name",
]

#: Characters legal in a Prometheus metric name, after the first.
_NAME_BODY = re.compile(r"[^a-zA-Z0-9_:]")
#: Content type Prometheus scrapers expect from a text-format endpoint.
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def sanitize_metric_name(name: str) -> str:
    """Map a registry name onto the Prometheus name grammar.

    Illegal characters become ``_``; a leading digit gets a ``_``
    prefix. Registry names are already identifier-like, so this is a
    safety net, not a translation layer.
    """
    cleaned = _NAME_BODY.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def _format_value(value: float) -> str:
    """A sample value in Prometheus text syntax (NaN/Inf spelled out)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return f"{value:g}" if isinstance(value, float) else str(value)


@dataclass
class MetricsSnapshot:
    """Point-in-time capture of a registry, ready to render.

    ``instruments`` maps each (sanitized) metric name to a
    ``(kind, state)`` pair; histogram state keeps the raw per-bucket
    counts so both renderings can derive their own cumulative forms.
    ``slot`` is the simulation slot the capture was taken at (``None``
    outside a run).
    """

    instruments: dict[str, tuple[str, object]] = field(default_factory=dict)
    slot: int | None = None

    @classmethod
    def capture(
        cls, registry: MetricsRegistry, slot: int | None = None
    ) -> "MetricsSnapshot":
        """Capture every instrument's current state (collectors run first)."""
        registry.collect()
        instruments: dict[str, tuple[str, object]] = {}
        for name, instrument in registry.instruments():
            key = sanitize_metric_name(name)
            if isinstance(instrument, Counter):
                instruments[key] = ("counter", instrument.value)
            elif isinstance(instrument, Gauge):
                instruments[key] = ("gauge", instrument.value)
            elif isinstance(instrument, Histogram):
                instruments[key] = (
                    "histogram",
                    {
                        "edges": list(instrument.edges),
                        "counts": list(instrument.counts),
                        "overflow": instrument.overflow,
                        "count": instrument.count,
                        "sum": instrument.total,
                    },
                )
        return cls(instruments=instruments, slot=slot)

    def names(self) -> list[str]:
        return sorted(self.instruments)

    def to_openmetrics(self) -> str:
        """Prometheus/OpenMetrics text rendering.

        One ``# TYPE`` line per metric; histograms expand to cumulative
        ``<name>_bucket{le="..."}`` samples (monotone non-decreasing,
        final bucket ``le="+Inf"`` equal to ``<name>_count``), plus
        ``<name>_sum`` and ``<name>_count``.
        """
        lines: list[str] = []
        if self.slot is not None:
            lines.append("# HELP repro_slot simulation slot of this snapshot")
            lines.append("# TYPE repro_slot gauge")
            lines.append(f"repro_slot {self.slot}")
        for name in self.names():
            kind, state = self.instruments[name]
            lines.append(f"# TYPE {name} {kind}")
            if kind in ("counter", "gauge"):
                lines.append(f"{name} {_format_value(state)}")
                continue
            cumulative = 0
            for edge, count in zip(state["edges"], state["counts"]):
                cumulative += count
                lines.append(f'{name}_bucket{{le="{edge:g}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {state["count"]}')
            lines.append(f"{name}_sum {_format_value(float(state['sum']))}")
            lines.append(f"{name}_count {state['count']}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-shaped capture (histograms keep raw bucket counts)."""
        metrics: dict = {}
        for name in self.names():
            kind, state = self.instruments[name]
            if kind == "histogram":
                metrics[name] = {"kind": kind, **state}
            else:
                value = state
                if isinstance(value, float) and not math.isfinite(value):
                    value = None
                metrics[name] = {"kind": kind, "value": value}
        return {"slot": self.slot, "metrics": metrics}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def render_openmetrics(registry: MetricsRegistry, slot: int | None = None) -> str:
    """One-call capture + OpenMetrics text rendering."""
    return MetricsSnapshot.capture(registry, slot=slot).to_openmetrics()


def render_json(registry: MetricsRegistry, slot: int | None = None) -> str:
    """One-call capture + JSON rendering."""
    return MetricsSnapshot.capture(registry, slot=slot).to_json()


class SnapshotExporter:
    """Periodic atomic snapshot files for a running simulation.

    ``every`` is the snapshot period in slots. The simulation driver
    ticks the exporter at slot-block boundaries (every
    :data:`~repro.sim.simulator._SLOT_BLOCK` slots), so the effective
    period is ``every`` rounded up to the block that crosses it — fine
    for scrape periods, which are orders of magnitude longer. Writes go
    through :func:`repro.ioutil.atomic_write_text`: a polling scraper
    sees either the previous snapshot or the new one, never a torn
    file.

    ``fmt`` is ``"openmetrics"`` (default) or ``"json"``. A disabled
    exporter (``enabled=False``) resolves to ``None`` in
    :func:`effective_exporter` — the same zero-overhead contract as
    :class:`~repro.obs.tracer.NullTracer`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str | Path,
        every: int = 1000,
        fmt: str = "openmetrics",
        enabled: bool = True,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1 slot, got {every}")
        if fmt not in ("openmetrics", "json"):
            raise ValueError(f"fmt must be 'openmetrics' or 'json', got {fmt!r}")
        self.registry = registry
        self.path = Path(path)
        self.every = every
        self.fmt = fmt
        self.enabled = enabled
        self.writes = 0
        self._next_due = every

    def _render(self, slot: int) -> str:
        if self.fmt == "json":
            return render_json(self.registry, slot=slot)
        return render_openmetrics(self.registry, slot=slot)

    def tick(self, slot: int) -> bool:
        """Write a snapshot if ``slot`` reached the next due point.

        Returns True when a file was written. Multiple elapsed periods
        collapse into one write — the registry state in between is gone
        either way.
        """
        if slot + 1 < self._next_due:
            return False
        self.write(slot)
        self._next_due = slot + 1 + self.every
        return True

    def write(self, slot: int) -> Path:
        """Write one snapshot unconditionally (used for the final dump)."""
        atomic_write_text(self.path, self._render(slot))
        self.writes += 1
        return self.path


def effective_exporter(exporter: SnapshotExporter | None) -> SnapshotExporter | None:
    """Resolve an exporter argument to the driver-loop handle.

    ``None`` or a disabled exporter resolves to ``None``, so the
    simulation driver guards ticks with one ``is not None`` check and a
    disabled exporter costs exactly as much as none at all.
    """
    if exporter is None or not exporter.enabled:
        return None
    return exporter


class _ScrapeHandler(BaseHTTPRequestHandler):
    """GET-only handler rendering the owning endpoint's registry."""

    server: "_ScrapeServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        endpoint = self.server.endpoint
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = render_openmetrics(
                endpoint.registry, slot=endpoint.current_slot
            ).encode()
            content_type = TEXT_CONTENT_TYPE
        elif path == "/metrics.json":
            body = render_json(
                endpoint.registry, slot=endpoint.current_slot
            ).encode()
            content_type = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics or /metrics.json)")
            return
        endpoint.scrapes += 1
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # pragma: no cover - silence
        pass


class _ScrapeServer(ThreadingHTTPServer):
    daemon_threads = True
    endpoint: "ScrapeEndpoint"


class ScrapeEndpoint:
    """Serve a live registry over HTTP from a daemon thread.

    ``port=0`` (the default) binds an ephemeral port; read it back from
    :attr:`port` / :attr:`url` after :meth:`start`. The handler captures
    a fresh snapshot per request, so a scrape mid-run sees the current
    counters (rendering holds the GIL; the simulation never observes a
    partial update). Usable as a context manager::

        with ScrapeEndpoint(registry) as endpoint:
            print("scrape me at", endpoint.url)
            run_simulation(...)
    """

    def __init__(
        self, registry: MetricsRegistry, host: str = "127.0.0.1", port: int = 0
    ):
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._server: _ScrapeServer | None = None
        self._thread: threading.Thread | None = None
        #: Slot stamp served with each scrape (update from the driver).
        self.current_slot: int | None = None
        self.scrapes = 0

    def start(self) -> "ScrapeEndpoint":
        if self._server is not None:
            return self
        self._server = _ScrapeServer(
            (self.host, self._requested_port), _ScrapeHandler
        )
        self._server.endpoint = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="lcf-metrics-scrape", daemon=True
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("endpoint not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    def __enter__(self) -> "ScrapeEndpoint":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
