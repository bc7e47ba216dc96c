"""``repro.obs`` — the instrumentation layer.

Zero-overhead-when-disabled tracing and metrics for the simulator,
schedulers, and sweep engine:

* :mod:`repro.obs.events` — the typed per-slot event vocabulary and its
  schema (validated in CI by ``tools/check_trace_schema.py``);
* :mod:`repro.obs.tracer` — event sinks (:class:`NullTracer`,
  :class:`RingTracer`, :class:`JsonlTracer`);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and fixed-bucket histograms;
* :mod:`repro.obs.chrome` — Chrome trace-event / Perfetto export;
* :mod:`repro.obs.probe` — :class:`MatchingQualityProbe`, achieved
  versus maximum matching size;
* :mod:`repro.obs.estimators` — online :class:`RateEstimator` (per-pair
  EWMA) and :class:`DelayHistogram` (exact live delay percentiles
  from per-value counts);
* :mod:`repro.obs.serve` — :class:`MetricsSnapshot` OpenMetrics/JSON
  rendering, the periodic :class:`SnapshotExporter`, and the HTTP
  :class:`ScrapeEndpoint`;
* :mod:`repro.obs.analytics` — paper-check probes
  (:class:`MessageAccountingProbe`, :class:`FairnessProbe`) and the
  matching-efficiency dashboard behind ``lcf-report --dashboard``;
* :mod:`repro.obs.cli` — the ``lcf-trace`` command.

See ``docs/OBSERVABILITY.md`` for the end-to-end walkthrough.
"""

from repro.obs.analytics import (
    FairnessProbe,
    FairnessReport,
    MessageAccountingProbe,
    MessageAccountingReport,
)
from repro.obs.chrome import to_chrome_trace, write_chrome_trace
from repro.obs.estimators import DelayHistogram, RateEstimator
from repro.obs.events import EVENT_SCHEMA, EVENT_TYPES, validate_event
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.probe import MatchingQualityProbe
from repro.obs.serve import (
    MetricsSnapshot,
    ScrapeEndpoint,
    SnapshotExporter,
    effective_exporter,
    render_json,
    render_openmetrics,
)
from repro.obs.tracer import (
    JsonlTracer,
    NullTracer,
    RingTracer,
    Tracer,
    effective_tracer,
    events_from_jsonl,
    write_jsonl,
)

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "validate_event",
    "Tracer",
    "NullTracer",
    "RingTracer",
    "JsonlTracer",
    "effective_tracer",
    "events_from_jsonl",
    "write_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MatchingQualityProbe",
    "RateEstimator",
    "DelayHistogram",
    "MetricsSnapshot",
    "SnapshotExporter",
    "ScrapeEndpoint",
    "effective_exporter",
    "render_openmetrics",
    "render_json",
    "MessageAccountingProbe",
    "MessageAccountingReport",
    "FairnessProbe",
    "FairnessReport",
    "to_chrome_trace",
    "write_chrome_trace",
]
