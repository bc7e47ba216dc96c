"""The switch's one slot body on the request bitmasks.

Dispatch (a scheduler with a ``schedule_masks`` method runs on the
masks, every other one on the request matrix or its weights, whatever
hooks are attached), bit-identity of whole runs against the reference
kernels, and request loss, which the switch applies to every entry
point alike.
"""

import numpy as np
import pytest

import repro.sim.simulator as simulator

from repro.adapt import AdaptiveLCF
from repro.baselines.registry import make_scheduler
from repro.faults import FaultInjector, FaultPlan, PortDownInterval
from repro.fastpath.lcf import FastLCFCentralRR
from repro.fastpath.registry import _reference_kernels, fast_schedulers
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer
from repro.sim.admission import AdmissionController
from repro.sim.config import SimConfig
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import build_switch, run_simulation
from repro.traffic.bernoulli import BernoulliUniform

CONFIG = SimConfig(n_ports=4, warmup_slots=10, measure_slots=60, seed=9)
#: Past 64 ports a request mask no longer fits one machine word; the
#: fast loop must run there too, on the same kernels.
WIDE = SimConfig(n_ports=80, warmup_slots=10, measure_slots=40, seed=9)


#: (PQ, VOQ) capacities small enough to fill at load 1.0, so a run
#: takes the fast loop's PQ-drop, head-of-line-block and empty-PQ-bypass
#: branches.
FULL_QUEUES = ((1, 1), (3, 2))


def at_both_widths(names):
    """``(name, config)`` cases at 4 ports (id ``name``) and at 80
    (id ``name-n80``)."""
    return [pytest.param(name, CONFIG, id=name) for name in names] + [
        pytest.param(name, WIDE, id=f"{name}-n80") for name in names
    ]


def equivalence_cases(names):
    """``(name, config, load)``: the default queues at load 0.8 (ids as
    in :func:`at_both_widths`), then each :data:`FULL_QUEUES` pair at
    load 1.0 (ids suffixed ``-pq<P>-voq<V>``)."""
    cases = at_both_widths(names)
    return [pytest.param(*case.values, 0.8, id=case.id) for case in cases] + [
        pytest.param(
            name,
            config.with_(pq_capacity=pq, voq_capacity=voq),
            1.0,
            id=f"{case.id}-pq{pq}-voq{voq}",
        )
        for pq, voq in FULL_QUEUES
        for case in cases
        for name, config in [case.values]
    ]


def entry_points(switch, slots=20):
    """The scheduler methods ``switch`` calls over ``slots`` slots of
    load-0.9 traffic: ``schedule_masks`` (the request bitmasks),
    ``schedule`` (the request matrix) or ``schedule_weighted``."""
    called = set()
    scheduler = switch.scheduler
    for name in ("schedule_masks", "schedule", "schedule_weighted"):
        method = getattr(scheduler, name, None)
        if method is None:
            continue

        def spy(*args, _name=name, _method=method, **kwargs):
            called.add(_name)
            return _method(*args, **kwargs)

        setattr(scheduler, name, spy)
    switch.run_slots(0, BernoulliUniform(switch.n, 0.9, seed=3).arrivals_block(slots))
    return called


class TestEngagement:
    def test_bare_bitset_kernel_takes_the_fast_loop(self):
        switch = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4))
        assert entry_points(switch) == {"schedule_masks"}

    def test_reference_scheduler_does_not(self):
        switch = InputQueuedSwitch(CONFIG, make_scheduler("lcf_central_rr", 4))
        assert entry_points(switch) == {"schedule"}

    def test_metrics_alone_keep_the_fast_loop(self):
        switch = InputQueuedSwitch(
            CONFIG, FastLCFCentralRR(4), metrics=MetricsRegistry()
        )
        assert entry_points(switch) == {"schedule_masks"}

    @pytest.mark.parametrize(
        "hooks",
        [
            lambda: {"tracer": RingTracer(1 << 10), "metrics": MetricsRegistry()},
            lambda: {"injector": FaultInjector(
                FaultPlan(port_down=(PortDownInterval(1, 5, 20, "input"),)), 4, seed=1
            )},
            lambda: {"adapter": AdaptiveLCF()},
            lambda: {"admission": AdmissionController(2, 4)},
            lambda: {"injector": FaultInjector(FaultPlan(request_loss=0.3), 4, seed=1)},
        ],
        ids=["tracer", "topology-faults", "adapter", "admission", "request-loss"],
    )
    def test_hooks_keep_the_kernel_on_its_masks(self, hooks):
        switch = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4), **hooks())
        assert entry_points(switch) == {"schedule_masks"}

    def test_weight_scheduler_never_takes_the_fast_loop(self):
        switch = InputQueuedSwitch(CONFIG, make_scheduler("lqf", 4))
        assert entry_points(switch) == {"schedule_weighted"}

    @pytest.mark.parametrize("config", [CONFIG, WIDE], ids=["n4", "n80"])
    def test_request_loss_thins_every_entry_point_alike(self, config):
        # The switch loses requests before any scheduler sees them: the
        # kernel on its masks, the reference on its matrix and a weight
        # scheduler on its weights all schedule only what survived.
        n = config.n_ports

        def run(scheduler, loss=0.3):
            injector = FaultInjector(FaultPlan(request_loss=loss), n, seed=1)
            switch = InputQueuedSwitch(config, scheduler, injector=injector)
            simulator._drive(config, switch, BernoulliUniform(n, 0.9, seed=9), None)
            result = simulator._package_result(config, "lcf", 0.9, switch, True)
            return result.row(), switch

        kernel, switch = run(FastLCFCentralRR(n))
        assert switch.request_loss is not None
        assert kernel == run(make_scheduler("lcf_central_rr", n))[0]
        assert kernel != run(FastLCFCentralRR(n), loss=0.0)[0]
        lqf, _ = run(make_scheduler("lqf", n))
        assert lqf != run(make_scheduler("lqf", n), loss=0.0)[0]

    def test_a_scheduler_holding_the_injector_keeps_its_own_channel(self):
        # The Section 5 protocol loses its own requests; the switch must
        # not lose them a second time.
        for config in (CONFIG, WIDE):
            n = config.n_ports
            switch = build_switch(
                config,
                "lcf_dist_rr",
                injector=FaultInjector(FaultPlan(request_loss=0.3), n, seed=1),
            )
            assert switch.scheduler.injector is not None, n
            assert switch.request_loss is None, n
            assert entry_points(switch) == {"schedule_masks"}, n


class TestDefaults:
    """Without the private reference override, every covered name runs
    on its bitset kernel — no caller has to ask for it."""

    @pytest.mark.parametrize("name", fast_schedulers())
    def test_plain_build_switch_gets_the_bitset_kernel(self, name):
        switch = build_switch(CONFIG, name)
        assert callable(type(switch.scheduler).schedule_masks)

    @pytest.mark.parametrize("name", fast_schedulers())
    def test_plain_run_simulation_gets_the_bitset_kernel(self, name, monkeypatch):
        built = []

        def recording_build_switch(*args, **kwargs):
            built.append(build_switch(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(simulator, "build_switch", recording_build_switch)
        run_simulation(CONFIG, name, 0.8)
        assert callable(type(built[0].scheduler).schedule_masks)

    @pytest.mark.parametrize("name", fast_schedulers())
    def test_metrics_only_switch_takes_the_fast_loop(self, name):
        switch = build_switch(CONFIG, name, metrics=MetricsRegistry())
        assert entry_points(switch) == {"schedule_masks"}

    def test_reference_override_builds_the_reference_scheduler(self):
        with _reference_kernels():
            switch = build_switch(CONFIG, "lcf_central_rr")
        assert type(switch.scheduler) is type(make_scheduler("lcf_central_rr", 4))


def reference_run(*args, **kwargs):
    with _reference_kernels():
        return run_simulation(*args, **kwargs)


class TestRunEquivalence:
    @pytest.mark.parametrize("name, config, load", equivalence_cases(fast_schedulers()))
    def test_fast_run_is_bit_identical(self, name, config, load):
        reference = reference_run(config, name, load, collect_percentiles=True)
        fast = run_simulation(config, name, load, collect_percentiles=True)
        assert reference.row() == fast.row()
        if (config.pq_capacity, config.voq_capacity) in FULL_QUEUES:
            assert fast.dropped > 0

    @pytest.mark.parametrize(
        "name, config", at_both_widths(["lcf_central_rr", "islip", "pim"])
    )
    def test_request_loss_is_applied_on_the_fast_loop(self, name, config):
        plan = FaultPlan(request_loss=0.3)
        reference = reference_run(config, name, 0.9, faults=plan)
        fast = run_simulation(config, name, 0.9, faults=plan)
        assert reference.row() == fast.row()
        # The loss model must actually bite, or the equality above would
        # also pass with the filter bypassed on both sides.
        pristine = run_simulation(config, name, 0.9)
        assert fast.row() != pristine.row()

    def test_fast_run_with_service_matrix_matches(self):
        # collect_service keeps the fast loop on; the per-pair grant
        # counts must match the instrumented loop's.
        reference = reference_run(CONFIG, "lcf_central_rr", 0.8, collect_service=True)
        fast = run_simulation(CONFIG, "lcf_central_rr", 0.8, collect_service=True)
        assert np.array_equal(reference.service_counts, fast.service_counts)

    def test_traced_fast_run_matches_reference_trace(self):
        # A tracer forces the instrumented loop, but the scheduler is
        # still the bitset kernel — its telemetry (decision traces and
        # events) must be byte-identical to the reference scheduler's.
        def traced(run):
            tracer = RingTracer(1 << 16)
            run(CONFIG, "lcf_central_rr", 0.8, tracer=tracer)
            return tracer.events

        assert traced(run_simulation) == traced(reference_run)


class TestFastLoopStatistics:
    def test_schedules_applied_per_slot_match(self):
        from repro.traffic.bernoulli import BernoulliUniform

        fast = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4))
        reference = InputQueuedSwitch(CONFIG, make_scheduler("lcf_central_rr", 4))
        fast.measuring = reference.measuring = True
        pattern = BernoulliUniform(4, 0.9, seed=3)
        for slot in range(200):
            arrivals = pattern.arrivals()
            applied_ref = reference.step(slot, arrivals)
            applied_fast = fast.step(slot, arrivals)
            assert np.array_equal(applied_ref, applied_fast), slot
        assert fast.forwarded == reference.forwarded
        assert fast.offered == reference.offered
        assert fast.latency.mean == reference.latency.mean
        assert fast.total_queued() == reference.total_queued()

    def test_step_on_a_metered_fast_switch_records_every_slot(self):
        # step() on the fast loop runs the same body as run_slots, so a
        # switch stepped one slot at a time still records its metrics.
        from repro.traffic.bernoulli import BernoulliUniform

        fast_metrics, slow_metrics = MetricsRegistry(), MetricsRegistry()
        fast = InputQueuedSwitch(CONFIG, FastLCFCentralRR(4), metrics=fast_metrics)
        slow = InputQueuedSwitch(
            CONFIG,
            FastLCFCentralRR(4),
            metrics=slow_metrics,
            tracer=RingTracer(1 << 10),
        )
        pattern = BernoulliUniform(4, 0.9, seed=3)
        for slot in range(120):
            arrivals = pattern.arrivals()
            applied = fast.step(slot, arrivals)
            assert np.array_equal(applied, slow.step(slot, arrivals)), slot
        assert fast_metrics.counter("slots").value == 120
        assert fast_metrics.snapshot() == slow_metrics.snapshot()
