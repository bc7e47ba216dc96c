"""Metrics-only runs equal traced runs, registry for registry.

A switch tallies its metrics locally and flushes them once per block of
slots. Attaching a tracer as well must change nothing the registry
sees, so the two registries must end up identical: every counter,
histogram and gauge (rates, exact delay percentiles, queue depth).
"""

from __future__ import annotations

import pytest

from repro.fastpath.registry import fast_schedulers
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import SnapshotExporter
from repro.obs.tracer import RingTracer
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation


def _run(config, scheduler, load, *, traced, **kwargs):
    metrics = MetricsRegistry()
    tracer = RingTracer(1 << 8) if traced else None
    result = run_simulation(
        config, scheduler, load, metrics=metrics, tracer=tracer,
        collect_percentiles=True, **kwargs,
    )
    return result, metrics


@pytest.mark.parametrize("load", [0.5, 0.95])
@pytest.mark.parametrize("n", [16, 64, 65, 128])
@pytest.mark.parametrize("scheduler", fast_schedulers())
def test_fast_loop_metrics_equal_instrumented_loop(scheduler, n, load):
    # 130 slots: blocks of 30, 64 and 36 — a warmup split and a short tail.
    config = SimConfig(n_ports=n, warmup_slots=30, measure_slots=100, seed=n)
    fast, fast_metrics = _run(config, scheduler, load, traced=False)
    slow, slow_metrics = _run(config, scheduler, load, traced=True)
    assert fast.row() == slow.row()
    assert fast_metrics.snapshot() == slow_metrics.snapshot()
    assert fast_metrics.counter("slots").value == config.total_slots


def test_exporter_driven_run_writes_identical_snapshots(tmp_path):
    config = SimConfig(n_ports=16, warmup_slots=50, measure_slots=250, seed=4)
    texts = []
    for traced in (False, True):
        path = tmp_path / f"traced{traced}.prom"
        exporter = SnapshotExporter(MetricsRegistry(), path, every=100)
        run_simulation(
            config, "lcf_dist_rr", 0.9, exporter=exporter,
            tracer=RingTracer(1 << 8) if traced else None,
        )
        assert exporter.writes > 1
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    assert "delay_p50" in texts[0] and "rr_overrides" in texts[0]


@pytest.mark.parametrize("scheduler", ["lcf_central_rr", "lcf_dist_rr", "islip"])
def test_overloaded_switch_drops_count_identically(scheduler):
    # Tiny PQs at full load: arrivals are dropped every block.
    config = SimConfig(
        n_ports=8, pq_capacity=3, voq_capacity=2,
        warmup_slots=20, measure_slots=150, seed=2,
    )
    fast, fast_metrics = _run(config, scheduler, 1.0, traced=False)
    slow, slow_metrics = _run(config, scheduler, 1.0, traced=True)
    assert fast_metrics.counter("dropped").value > 0
    assert fast.row() == slow.row()
    assert fast_metrics.snapshot() == slow_metrics.snapshot()
