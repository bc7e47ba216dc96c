"""MetricsSnapshot rendering, SnapshotExporter, and the scrape endpoint."""

from __future__ import annotations

import json
import math
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import (
    TEXT_CONTENT_TYPE,
    MetricsSnapshot,
    ScrapeEndpoint,
    SnapshotExporter,
    effective_exporter,
    render_json,
    render_openmetrics,
    sanitize_metric_name,
)


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("forwarded").inc(7)
    registry.gauge("queue_depth").set(3.5)
    hist = registry.histogram("delay", (1, 2, 4))
    for value in (1, 1, 3, 9):
        hist.observe(value)
    return registry


class TestSanitize:
    def test_passthrough_and_cleaning(self):
        assert sanitize_metric_name("forwarded_total") == "forwarded_total"
        assert sanitize_metric_name("rate in/out") == "rate_in_out"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("") == "_"


class TestOpenMetricsRendering:
    def test_scalars_and_type_lines(self):
        text = render_openmetrics(populated_registry())
        assert "# TYPE forwarded counter\nforwarded 7" in text
        assert "# TYPE queue_depth gauge\nqueue_depth 3.5" in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_openmetrics(populated_registry())
        lines = text.splitlines()
        bucket_lines = [l for l in lines if l.startswith("delay_bucket")]
        # Raw counts 2/0/1 + overflow 1 -> cumulative 2/2/3, +Inf = 4.
        assert bucket_lines == [
            'delay_bucket{le="1"} 2',
            'delay_bucket{le="2"} 2',
            'delay_bucket{le="4"} 3',
            'delay_bucket{le="+Inf"} 4',
        ]
        assert "delay_sum 14" in text
        assert "delay_count 4" in text

    def test_slot_stamp(self):
        text = render_openmetrics(populated_registry(), slot=1234)
        assert "repro_slot 1234" in text
        assert "repro_slot" not in render_openmetrics(populated_registry())

    def test_nan_gauge_renders_as_nan_token(self):
        registry = MetricsRegistry()
        registry.gauge("untouched")  # gauges start at NaN
        text = render_openmetrics(registry)
        assert "untouched NaN" in text

    def test_collectors_run_at_capture(self):
        registry = populated_registry()
        registry.add_collector(
            "derived", lambda: registry.gauge("derived").set(42.0)
        )
        snapshot = MetricsSnapshot.capture(registry)
        assert snapshot.instruments["derived"] == ("gauge", 42.0)

    def test_passes_the_conformance_tool(self):
        import importlib.util
        from pathlib import Path

        tool_path = (
            Path(__file__).resolve().parents[2]
            / "tools"
            / "check_metrics_snapshot.py"
        )
        spec = importlib.util.spec_from_file_location("cms", tool_path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        registry = populated_registry()
        text = render_openmetrics(registry, slot=10)
        assert tool.validate_openmetrics(text, registry.names()) == []


class TestJsonRendering:
    def test_round_trips_and_masks_non_finite(self):
        registry = populated_registry()
        registry.gauge("nan_gauge").set(math.nan)
        payload = json.loads(render_json(registry, slot=5))
        assert payload["slot"] == 5
        assert payload["metrics"]["forwarded"] == {"kind": "counter", "value": 7}
        assert payload["metrics"]["nan_gauge"]["value"] is None
        delay = payload["metrics"]["delay"]
        assert delay["kind"] == "histogram"
        assert delay["counts"] == [2, 0, 1]
        assert delay["overflow"] == 1
        assert delay["count"] == 4


class TestSnapshotExporter:
    def test_periodic_ticks(self, tmp_path):
        path = tmp_path / "snap.prom"
        exporter = SnapshotExporter(populated_registry(), path, every=100)
        assert not exporter.tick(50)
        assert exporter.tick(99)  # slot 99 completes the 100th slot
        assert not exporter.tick(150)
        assert exporter.tick(250)  # missed periods collapse to one write
        assert exporter.writes == 2
        assert path.read_text().endswith("# EOF\n")
        assert not list(tmp_path.glob("*.tmp.*")), "temp file leaked"

    def test_final_write_and_json_format(self, tmp_path):
        path = tmp_path / "snap.json"
        exporter = SnapshotExporter(populated_registry(), path, fmt="json")
        exporter.write(7)
        assert json.loads(path.read_text())["slot"] == 7

    def test_validation(self, tmp_path):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            SnapshotExporter(registry, tmp_path / "x", every=0)
        with pytest.raises(ValueError):
            SnapshotExporter(registry, tmp_path / "x", fmt="xml")

    def test_effective_exporter_contract(self, tmp_path):
        assert effective_exporter(None) is None
        disabled = SnapshotExporter(
            MetricsRegistry(), tmp_path / "x", enabled=False
        )
        assert effective_exporter(disabled) is None
        enabled = SnapshotExporter(MetricsRegistry(), tmp_path / "x")
        assert effective_exporter(enabled) is enabled


class TestRunSimulationIntegration:
    def test_exporter_attaches_its_registry_and_writes(self, tmp_path):
        from repro.sim.config import SimConfig
        from repro.sim.simulator import run_simulation

        path = tmp_path / "run.prom"
        registry = MetricsRegistry()
        exporter = SnapshotExporter(registry, path, every=64)
        result = run_simulation(
            SimConfig(n_ports=4, warmup_slots=0, measure_slots=200),
            "lcf_dist",
            0.8,
            exporter=exporter,
        )
        assert result.forwarded > 0
        assert exporter.writes >= 2  # periodic ticks plus the final dump
        text = path.read_text()
        assert f"repro_slot 199" in text  # final snapshot stamped at the end
        assert "forwarded" in text and "delay_p50" in text

    def test_disabled_exporter_changes_nothing(self, tmp_path):
        from repro.sim.config import SimConfig
        from repro.sim.simulator import run_simulation

        config = SimConfig(n_ports=4, warmup_slots=0, measure_slots=150)
        plain = run_simulation(config, "lcf_central", 0.9)
        path = tmp_path / "never.prom"
        disabled = SnapshotExporter(MetricsRegistry(), path, enabled=False)
        gated = run_simulation(config, "lcf_central", 0.9, exporter=disabled)
        assert gated.mean_latency == plain.mean_latency
        assert gated.forwarded == plain.forwarded
        assert disabled.writes == 0 and not path.exists()


class TestScrapeEndpoint:
    def test_scrape_text_and_json(self):
        registry = populated_registry()
        with ScrapeEndpoint(registry) as endpoint:
            endpoint.current_slot = 42
            with urllib.request.urlopen(endpoint.url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == TEXT_CONTENT_TYPE
                body = response.read().decode()
            assert "repro_slot 42" in body and "forwarded 7" in body

            json_url = endpoint.url.replace("/metrics", "/metrics.json")
            with urllib.request.urlopen(json_url, timeout=5) as response:
                payload = json.loads(response.read())
            assert payload["metrics"]["forwarded"]["value"] == 7
            assert endpoint.scrapes == 2

    def test_scrape_sees_live_updates(self):
        registry = MetricsRegistry()
        registry.counter("ticks").inc()
        with ScrapeEndpoint(registry) as endpoint:
            first = urllib.request.urlopen(endpoint.url, timeout=5).read().decode()
            registry.counter("ticks").inc(9)
            second = urllib.request.urlopen(endpoint.url, timeout=5).read().decode()
        assert "ticks 1" in first and "ticks 10" in second

    def test_unknown_path_is_404(self):
        with ScrapeEndpoint(MetricsRegistry()) as endpoint:
            url = endpoint.url.replace("/metrics", "/nope")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404

    def test_port_requires_start(self):
        endpoint = ScrapeEndpoint(MetricsRegistry())
        with pytest.raises(RuntimeError):
            endpoint.port


class TestScrapeEdgeCases:
    """HTTP serving under awkward-but-legal conditions."""

    def test_empty_registry_scrapes_cleanly(self):
        # A scrape before any instrument exists must still be a valid
        # OpenMetrics document, not a 500 or an empty body.
        with ScrapeEndpoint(MetricsRegistry()) as endpoint:
            with urllib.request.urlopen(endpoint.url, timeout=5) as response:
                assert response.status == 200
                body = response.read().decode()
            assert body == "# EOF\n"
            json_url = endpoint.url.replace("/metrics", "/metrics.json")
            with urllib.request.urlopen(json_url, timeout=5) as response:
                payload = json.loads(response.read())
        assert payload == {"slot": None, "metrics": {}}

    def test_concurrent_scrape_during_exporter_writes(self, tmp_path):
        # A scraper polling the endpoint while a SnapshotExporter is
        # rewriting its file (and the registry is being mutated) must
        # only ever see well-formed documents — on the wire AND on
        # disk (the atomic_write_text contract).
        import threading

        registry = populated_registry()
        exporter = SnapshotExporter(registry, tmp_path / "snap.json", fmt="json")
        stop = threading.Event()
        written = threading.Event()

        def churn() -> None:
            slot = 0
            while not stop.is_set():
                registry.counter("forwarded").inc()
                exporter.write(slot)
                written.set()
                slot += 1

        writer = threading.Thread(target=churn, daemon=True)
        with ScrapeEndpoint(registry) as endpoint:
            writer.start()
            try:
                # snap.json exists once the first write has landed.
                assert written.wait(timeout=5)
                json_url = endpoint.url.replace("/metrics", "/metrics.json")
                for _ in range(25):
                    with urllib.request.urlopen(endpoint.url, timeout=5) as response:
                        text = response.read().decode()
                    assert text.endswith("# EOF\n")
                    with urllib.request.urlopen(json_url, timeout=5) as response:
                        scraped = json.loads(response.read())
                    assert scraped["metrics"]["forwarded"]["value"] >= 7
                    on_disk = json.loads((tmp_path / "snap.json").read_text())
                    assert on_disk["metrics"]["forwarded"]["kind"] == "counter"
            finally:
                stop.set()
                writer.join(timeout=5)
        assert exporter.writes > 0
        assert not list(tmp_path.glob("*.tmp.*")), "no torn temp files"

    def test_scrape_during_simulation_exporter(self, tmp_path):
        # End to end: a live endpoint scraped while run_simulation
        # drives the same registry through a SnapshotExporter.
        from repro.sim.config import SimConfig
        from repro.sim.simulator import run_simulation

        registry = MetricsRegistry()
        exporter = SnapshotExporter(registry, tmp_path / "snap.txt", every=64)
        with ScrapeEndpoint(registry) as endpoint:
            result = run_simulation(
                SimConfig(n_ports=4, warmup_slots=10, measure_slots=200, seed=51),
                "lcf_central_rr",
                0.8,
                metrics=registry,
                exporter=exporter,
            )
            body = urllib.request.urlopen(endpoint.url, timeout=5).read().decode()
        assert result.forwarded > 0
        assert "# EOF" in body
        assert exporter.writes > 0
