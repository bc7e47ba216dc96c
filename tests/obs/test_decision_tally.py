"""The LCF decision tally: what a metered run's decision histograms read.

A switch with a :class:`~repro.obs.metrics.MetricsRegistry` attaches a
:class:`~repro.core.base.DecisionTally` to its LCF scheduler, and the
kernels add each grant's choice count, tie-break depth and RR override
to it where they decide. Three things are pinned here:

* metered runs of the four LCF schedulers keep their rows and their
  OpenMetrics text byte for byte (digests recorded before the tally
  replaced the per-step decision records);
* for every LCF class, reference and bitset, the tally after one call
  equals the per-value fold of that call's decision records;
* a metrics-only run builds no decision records at all.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.checkpoint.state import snapshot_state
from repro.core.base import DecisionTally
from repro.core.lcf_central import LCFCentralVariant, RRCoverage, StepTrace
from repro.core.lcf_dist import IterationTrace, LCFDistributed, LCFDistributedRR
from repro.fastpath.lcf import FastLCFCentralRR, FastLCFCentralVariant
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.faults import FaultInjector, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import MatchingQualityProbe
from repro.obs.serve import render_openmetrics
from repro.obs.tracer import RingTracer
from repro.sim.config import SimConfig
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import _drive, make_crossbar_scheduler, run_simulation
from repro.traffic.base import make_traffic
from repro.types import NO_GRANT

# -- metered pins ------------------------------------------------------

#: Case -> (scheduler, n, load, fault spec).
_CASES = {
    f"{name}/n{n}": (name, n, 0.9, None)
    for name in ("lcf_central", "lcf_central_rr", "lcf_dist", "lcf_dist_rr")
    for n in (16, 80)
}
_CASES["lcf_dist_rr/n16/request_loss"] = (
    "lcf_dist_rr", 16, 0.9, (("request_loss", 0.1),),
)
# At low load a lossy cycle sometimes pre-matches the RR position with no
# other request live, and so records no iteration: the fold of the
# records counts no override for it, and neither does the tally.
_CASES["lcf_dist_rr/n16/request_loss/load0.1"] = (
    "lcf_dist_rr", 16, 0.1, (("request_loss", 0.1),),
)

#: sha256 of ``repr(sorted(row.items()))`` and of the OpenMetrics text.
_PINS = {
    "lcf_central/n16": {
        "row": "86c11e8f797327b9384177f4097c13b3130ba5f6d6f10ba03eed311a95097cae",
        "metrics": "7d55f8761774fab08e0584e69e40a1189284f6895a261aa7c428584ab3caac99",
    },
    "lcf_central/n80": {
        "row": "76665e40c1f224b26ea245e57a8715003364c5adc3069d99a0367a1c454a870a",
        "metrics": "f6f48c7a9d8376878b6799a893ed0484904b9ddc3857723ed18ace36813b1f51",
    },
    "lcf_central_rr/n16": {
        "row": "b1e836c8e5a0d510caa4296b7c79cfe7a2ab3c1784a25a9820c2700fd039873b",
        "metrics": "8e0ea0e5302f627dba5a08b702c12723e1a0547135a8898ae5965a4aa77fa0ad",
    },
    "lcf_central_rr/n80": {
        "row": "919f465fa505482001b8922995223d6787f4ba00a4a719fa1c0df390e4c8bf78",
        "metrics": "900c0b928a786e6ae7263992f59cf75360b7cc471093af4cd9b736a745f5318c",
    },
    "lcf_dist/n16": {
        "row": "022b15640684cf7fa8cfc5607ce10d03224e42bbfb659462832e0137a65263b7",
        "metrics": "5ddbd3c85a840ee265fdc8f9357cda6446a7f92e67d4ea8ba774ed08c0645622",
    },
    "lcf_dist/n80": {
        "row": "5cb4460f0a23266e687416a2f167c8f0c2d8e22a357ceb1e0108a099845c9e22",
        "metrics": "baabeab165b599d97556fee0705ff4b7f8f59c61fe106136928d51ec22113ca3",
    },
    "lcf_dist_rr/n16": {
        "row": "7e883425254292d798f2094b69c1f62d075ed69ff0c489c74be6f46a833a0a6b",
        "metrics": "8fed6cbce38c9a0b92f4a9a8f5e974e6afeb4c3f0c798573165d5314cd60ac4c",
    },
    "lcf_dist_rr/n16/request_loss": {
        "row": "d7a690efff01851eff9b8c6ca3aeb10ea0a9e1598a5d8b6a8818a19c47bdd1b4",
        "metrics": "5e3c5b7e37fb546ddcf86c5235afe00b8ad3f21f3d34b16764664c1ae534f06d",
    },
    "lcf_dist_rr/n16/request_loss/load0.1": {
        "row": "f2104fedbb98a15ccc3e9e4fc1983b5c5de04be934510fdc9b996ffce1ac6462",
        "metrics": "281c6b593f76b59eef6b0bc80a6b4e42d6535d202a96ec60555e291ce085a3d6",
    },
    "lcf_dist_rr/n80": {
        "row": "c6ec2049595f18eff96c32304ecd957995172d5dcafd41712eab0c2ea7edad6f",
        "metrics": "31c49db8395b1ad388c0d1c4bfc6e01438517d4ee141df124319d4f06188b093",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _metered_digests(case: str) -> dict[str, str]:
    scheduler, n, load, faults = _CASES[case]
    warmup, measure = (50, 450) if n == 16 else (20, 100)
    config = SimConfig(n_ports=n, warmup_slots=warmup, measure_slots=measure, seed=7)
    metrics = MetricsRegistry()
    result = run_simulation(
        config, scheduler, load, collect_percentiles=True,
        metrics=metrics, faults=faults,
    )
    return {
        "row": _sha(repr(sorted(result.row().items()))),
        "metrics": _sha(render_openmetrics(metrics)),
    }


@pytest.mark.parametrize("case", sorted(_CASES))
def test_metered_run_is_pinned(case):
    assert _metered_digests(case) == _PINS[case]


# -- the tally equals the records -------------------------------------


def _fold(records, n: int, rr_pending: bool) -> tuple[list[int], list[int], int]:
    """Per-value counts of one call's decision records: each granted
    central step adds its winner's NRQ and chain depth (and its RR win),
    each distributed accept the initiator's ``nrq``; a distributed cycle
    that recorded an iteration adds the RR overlay's pre-match."""
    choices, depths, overrides = [0] * (n + 1), [0] * n, 0
    for record in records:
        if isinstance(record, StepTrace):
            if record.granted != NO_GRANT:
                choices[record.nrq_before[record.granted]] += 1
                depths[(record.granted - record.rr_row) % n] += 1
                overrides += record.rr_won
        else:
            assert isinstance(record, IterationTrace)
            for i, _ in record.accepts:
                choices[record.nrq[i]] += 1
    if records and isinstance(records[0], IterationTrace):
        overrides += rr_pending
    return choices, depths, overrides


def _lossy(n: int) -> FaultInjector:
    return FaultInjector(
        FaultPlan(request_loss=0.3, grant_loss=0.2, accept_loss=0.2), n, seed=11
    )


def _central(cls, coverage):
    return lambda n: cls(n, coverage)


def _distributed(cls, lossy: bool):
    return lambda n: cls(n, injector=_lossy(n) if lossy else None)


_BUILDERS = {
    **{
        f"{cls.__name__}-{coverage.value}": _central(cls, coverage)
        for cls in (LCFCentralVariant, FastLCFCentralVariant)
        for coverage in RRCoverage
    },
    **{
        f"{cls.__name__}{'-lossy' if lossy else ''}": _distributed(cls, lossy)
        for cls in (
            LCFDistributed, LCFDistributedRR, FastLCFDistributed, FastLCFDistributedRR
        )
        for lossy in (False, True)
    },
}


@pytest.mark.parametrize("n", [4, 16, 33, 80])
@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_tally_equals_the_fold_of_the_records(kind, n):
    # ``recorded`` keeps records and a tally; ``tallied`` only a tally,
    # so a bitset kernel above 32 ports runs its bucket body.
    recorded, tallied = _BUILDERS[kind](n), _BUILDERS[kind](n)
    recorded.record_trace = True
    recorded.decision_tally = DecisionTally(n)
    tallied.decision_tally = DecisionTally(n)
    rng = np.random.default_rng(n)
    totals = [0, 0]
    for call in range(48):
        position = getattr(recorded, "rr_position", None)
        if call % 8 == 7:
            # A lone request, at the RR position where there is one: a
            # lossy cycle then pre-matches it and records no iteration.
            matrix = np.zeros((n, n), dtype=bool)
            matrix[position or (call % n, 3 * call % n)] = True
        else:
            density = (0.0, 0.02, 0.1, 0.3, 0.6, 0.95, 0.5)[call % 8]
            matrix = rng.random((n, n)) < density
        rr_pending = position is not None and bool(matrix[position])
        schedule = recorded.schedule(matrix)
        assert np.array_equal(tallied.schedule(matrix), schedule)
        expected = _fold(recorded.last_trace, n, rr_pending)
        assert recorded.decision_tally.drain() == expected
        assert tallied.decision_tally.drain() == expected
        totals[0] += sum(expected[0])
        totals[1] += expected[2]
    assert totals[0] > 0
    if "RR" in kind or kind.endswith(("-diagonal", "-single")):
        assert totals[1] > 0  # the RR position won somewhere


def test_drain_returns_the_counts_and_restarts():
    tally = DecisionTally(3)
    tally.choices[2] += 4
    tally.depths[1] += 1
    tally.overrides += 2
    assert tally.drain() == ([0, 0, 4, 0], [0, 1, 0], 2)
    assert tally.drain() == ([0, 0, 0, 0], [0, 0, 0], 0)


# -- no records without a tracer --------------------------------------


def _metered_switch(scheduler, tracer=None, n: int = 8, injector=None):
    """A metered switch run for 200 slots at load 0.9; returns it and its
    registry."""
    config = SimConfig(n_ports=n, warmup_slots=20, measure_slots=180, seed=3)
    metrics = MetricsRegistry()
    switch = InputQueuedSwitch(
        config, scheduler, metrics=metrics, tracer=tracer, injector=injector
    )
    _drive(config, switch, make_traffic("bernoulli", n, 0.9, seed=3), None)
    return switch, metrics


@pytest.mark.parametrize(
    "name", ["lcf_central", "lcf_central_rr", "lcf_dist", "lcf_dist_rr"]
)
def test_metrics_only_run_keeps_no_records(name):
    scheduler = make_crossbar_scheduler(name, 8)
    switch, metrics = _metered_switch(scheduler)
    assert scheduler.record_trace is False
    assert scheduler.last_trace == []
    assert scheduler.decision_tally is switch.decision_tally
    assert metrics.get("choice_count").count > 0
    # Wiring, not run state: no checkpoint carries it.
    assert "decision_tally" not in repr(snapshot_state(switch))


def _assert_tally_reaches_the_kernel(wrap, injector=None):
    inner = FastLCFCentralRR(8)
    switch, metrics = _metered_switch(wrap(inner), injector=injector)
    assert inner.decision_tally is switch.decision_tally
    assert inner.record_trace is False
    assert metrics.counter("rr_overrides").value > 0
    # The same run with a tracer attached reads the same registry.
    traced_inner = FastLCFCentralRR(8)
    _, traced_metrics = _metered_switch(
        wrap(traced_inner), RingTracer(1 << 16), injector=injector
    )
    assert traced_inner.record_trace is True
    assert metrics.snapshot() == traced_metrics.snapshot()


@pytest.mark.parametrize("wrapper", [MatchingQualityProbe], ids=["probe"])
def test_wrappers_forward_the_tally(wrapper):
    _assert_tally_reaches_the_kernel(wrapper)


def test_request_loss_keeps_the_tally_on_the_kernel():
    # Request loss is the switch's, so the kernel it thins for is the
    # scheduler the tally and the tracer attach to.
    injector = FaultInjector(FaultPlan(request_loss=0.3), 8, seed=3)
    _assert_tally_reaches_the_kernel(lambda inner: inner, injector)
