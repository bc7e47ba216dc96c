"""Observability overhead: the disabled path must be (nearly) free.

The :mod:`repro.obs` contract is that a simulation with no tracer — or
with a :class:`~repro.obs.tracer.NullTracer`, which resolves to the
same code path — pays only the ``is not None`` guards in the switch's
slot body. ``test_disabled_path_overhead_budget`` turns that into a
hard assertion: the instrumented-but-disabled slot body must run within
2% of the uninstrumented one (min-of-repeats timing, retried to ride
out scheduler noise on shared CI hosts).

A metrics registry's counters and histograms are tallied locally and
flushed once per slot block, so ``test_enabled_metrics_overhead_budget``
also bounds the *enabled* metrics path: an n=16 ``lcf_central_rr`` run
with a registry attached must stay within 2.5x of the same run without
one.

The remaining benchmarks are informational: what tracing *costs when
enabled*, for sizing trace windows before a big capture.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_CONFIG
from repro.baselines.registry import make_scheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import SnapshotExporter, effective_exporter
from repro.obs.tracer import NullTracer, RingTracer
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import run_simulation
from repro.traffic.bernoulli import BernoulliUniform

#: Acceptance budget: disabled-path slowdown on the step loop.
MAX_DISABLED_OVERHEAD = 1.02

#: Acceptance budget: metrics-on over metrics-off, whole fast run.
MAX_METRICS_ON_RATIO = 2.5

SLOTS = 400


def _run_slots(tracer=None, metrics=None, slots: int = SLOTS) -> float:
    """Seconds for ``slots`` steps of the 16-port bench crossbar."""
    switch = InputQueuedSwitch(
        BENCH_CONFIG,
        make_scheduler("lcf_central_rr", 16),
        tracer=tracer,
        metrics=metrics,
    )
    pattern = BernoulliUniform(16, 0.9, seed=1)
    arrivals = [pattern.arrivals() for _ in range(slots)]
    start = time.perf_counter()
    for slot in range(slots):
        switch.step(slot, arrivals[slot])
    return time.perf_counter() - start


def _min_of(repeats: int, tracer_factory) -> float:
    return min(_run_slots(tracer=tracer_factory()) for _ in range(repeats))


def test_disabled_path_overhead_budget():
    """A NullTracer run must be within 2% of an uninstrumented run.

    NullTracer resolves to ``tracer=None`` inside the switch, so the
    two sides execute structurally identical code — the assertion
    guards against anyone re-introducing per-event work on the
    disabled path. Min-of-repeats timing with a few retries keeps the
    check robust to transient load spikes.
    """
    for attempt in range(4):
        baseline = _min_of(5, lambda: None)
        disabled = _min_of(5, NullTracer)
        ratio = disabled / baseline
        if ratio <= MAX_DISABLED_OVERHEAD:
            return
    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled-path instrumentation costs {ratio:.3f}x "
        f"(budget {MAX_DISABLED_OVERHEAD}x)"
    )


def test_disabled_exporter_overhead_budget(tmp_path):
    """A disabled SnapshotExporter must cost as much as none at all.

    ``effective_exporter`` resolves a disabled exporter to ``None``
    before the simulation driver's block loop, so — exactly like the
    NullTracer contract above — the per-slot path is structurally
    identical with and without one. The run here mimics the driver:
    ``tick`` is only ever reached when an exporter survives resolution.
    """

    def run_with(exporter) -> float:
        resolved = effective_exporter(exporter)
        switch = InputQueuedSwitch(
            BENCH_CONFIG, make_scheduler("lcf_central_rr", 16)
        )
        pattern = BernoulliUniform(16, 0.9, seed=1)
        arrivals = [pattern.arrivals() for _ in range(SLOTS)]
        start = time.perf_counter()
        for slot in range(SLOTS):
            switch.step(slot, arrivals[slot])
            if resolved is not None:
                resolved.tick(slot)
        return time.perf_counter() - start

    disabled = SnapshotExporter(
        MetricsRegistry(), tmp_path / "snap.prom", enabled=False
    )
    for attempt in range(4):
        baseline = min(run_with(None) for _ in range(5))
        gated = min(run_with(disabled) for _ in range(5))
        ratio = gated / baseline
        if ratio <= MAX_DISABLED_OVERHEAD:
            break
    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled snapshot exporter costs {ratio:.3f}x "
        f"(budget {MAX_DISABLED_OVERHEAD}x)"
    )
    assert disabled.writes == 0 and not (tmp_path / "snap.prom").exists()


def _fast_run_seconds(metrics: bool) -> float:
    """Seconds for one whole n=16 ``lcf_central_rr`` fast run."""
    registry = MetricsRegistry() if metrics else None
    start = time.perf_counter()
    run_simulation(BENCH_CONFIG, "lcf_central_rr", 0.9, metrics=registry)
    return time.perf_counter() - start


def test_enabled_metrics_overhead_budget():
    """The metrics-on run must be within 2.5x of the metrics-off run.

    Whole-run min-of-repeats timing with retries, like the disabled
    budgets above.
    """
    for attempt in range(4):
        off = min(_fast_run_seconds(False) for _ in range(3))
        on = min(_fast_run_seconds(True) for _ in range(3))
        ratio = on / off
        if ratio <= MAX_METRICS_ON_RATIO:
            return
    assert ratio <= MAX_METRICS_ON_RATIO, (
        f"metrics-on fast run costs {ratio:.2f}x the metrics-off run "
        f"(budget {MAX_METRICS_ON_RATIO}x)"
    )


def test_step_loop_uninstrumented(benchmark):
    """Baseline: the bare step loop (reference for the ratios below)."""
    benchmark.pedantic(_run_slots, rounds=3, iterations=1)


def test_step_loop_ring_tracer(benchmark):
    """Enabled-path cost with an in-memory RingTracer attached."""
    benchmark.pedantic(
        lambda: _run_slots(tracer=RingTracer()), rounds=3, iterations=1
    )


def test_step_loop_metrics_only(benchmark):
    """Enabled-path cost with only a MetricsRegistry attached."""
    benchmark.pedantic(
        lambda: _run_slots(metrics=MetricsRegistry()), rounds=3, iterations=1
    )
