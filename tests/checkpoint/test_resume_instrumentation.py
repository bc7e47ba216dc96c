"""A resume's instrumentation is the resumer's, not the writer's.

A checkpoint written with no instrumentation, a tracer or a metrics
registry resumes under any of the three: the crossbar's observing and
fast-loop flags, a kernel's ``record_trace`` and the live estimators
are derived from the rebuilt switch's own wiring, never read back from
the file. The resumed row equals the uninterrupted run's, a resumed
tracer sees exactly the uninterrupted trace from the stop slot on, and
a resumed registry counts the resumed slots (plus the file's counts
when the file had a registry).
"""

from __future__ import annotations

import pytest

from repro.checkpoint import resume_simulation
from repro.fastpath.registry import fast_schedulers
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

CONFIG = SimConfig(n_ports=8, warmup_slots=20, measure_slots=100, seed=7)
LOAD = 0.9
STOP = 60
SCHEDULERS = (*fast_schedulers(), "lqf")
INSTRUMENTS = ("none", "tracer", "metrics")


def _instrument(kind: str) -> dict:
    if kind == "tracer":
        return {"tracer": RingTracer(1 << 18)}
    if kind == "metrics":
        return {"metrics": MetricsRegistry()}
    return {}


@pytest.fixture(scope="module")
def straight():
    """Per scheduler: the uninterrupted row, traced events from STOP
    on, and the metered ``forwarded`` count at STOP and at the end."""
    out = {}
    for name in SCHEDULERS:
        tracer = RingTracer(1 << 18)
        metrics = MetricsRegistry()
        row = run_simulation(CONFIG, name, LOAD, tracer=tracer).row()
        run_simulation(CONFIG, name, LOAD, metrics=metrics)
        out[name] = {
            "row": row,
            "events": [e for e in tracer.events if e["slot"] >= STOP],
            "forwarded": metrics.counter("forwarded").value,
        }
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per (scheduler, writer instrumentation): a file paused at STOP,
    and the writer registry's ``forwarded`` count there."""
    root = tmp_path_factory.mktemp("ckpt")
    out = {}
    for name in SCHEDULERS:
        for kind in INSTRUMENTS:
            path = root / f"{name}-{kind}.ckpt"
            wiring = _instrument(kind)
            run_simulation(
                CONFIG, name, LOAD, checkpoint_path=path, stop_at_slot=STOP,
                **wiring,
            )
            metrics = wiring.get("metrics")
            counted = metrics.counter("forwarded").value if metrics else None
            out[name, kind] = (path, counted)
    return out


@pytest.mark.parametrize("resumed_with", INSTRUMENTS)
@pytest.mark.parametrize("written_with", INSTRUMENTS)
@pytest.mark.parametrize("name", SCHEDULERS)
def test_resume_under_any_instrumentation(
    name, written_with, resumed_with, straight, files, tmp_path
):
    path, written_count = files[name, written_with]
    wiring = _instrument(resumed_with)
    result = resume_simulation(
        path, checkpoint_path=tmp_path / "again.ckpt", **wiring
    )
    expected = straight[name]
    assert result.row() == expected["row"]
    if resumed_with == "tracer":
        assert wiring["tracer"].events == expected["events"]
    if resumed_with == "metrics":
        # The file's count at STOP is the same whatever wrote it; a
        # registry restored from the file starts from it.
        _, at_stop = files[name, "metrics"]
        resumed_slots = expected["forwarded"] - at_stop
        carried = written_count if written_count is not None else 0
        assert wiring["metrics"].counter("forwarded").value == (
            resumed_slots + carried
        )
