"""Admission control: hysteresis shedding at the switch ingress."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingTracer
from repro.sim.admission import AdmissionController, make_admission
from repro.sim.config import SimConfig
from repro.sim.simulator import build_switch, run_simulation

OVERLOAD = SimConfig(
    n_ports=4, warmup_slots=0, measure_slots=200,
    voq_capacity=8, pq_capacity=16, seed=41,
)


class TestController:
    def test_hysteresis_band(self):
        ctrl = AdmissionController(low=2, high=5)
        assert not ctrl.shedding
        ctrl.update(4)          # below high: stays off
        assert not ctrl.shedding
        ctrl.update(5)          # reaches high: turns on
        assert ctrl.shedding
        ctrl.update(3)          # inside the band: stays ON (hysteresis)
        assert ctrl.shedding
        ctrl.update(2)          # drains to low: turns off
        assert not ctrl.shedding
        ctrl.update(4)          # inside the band: stays OFF
        assert not ctrl.shedding
        assert ctrl.transitions == 2

    def test_degenerate_band_flaps(self):
        # low == high collapses the hysteresis to a single threshold.
        ctrl = AdmissionController(low=3, high=3)
        for occupancy in (3, 2, 3, 2):
            ctrl.update(occupancy)
        assert ctrl.transitions == 4

    def test_shed_accounting_and_events(self):
        ctrl = AdmissionController(low=0, high=1)
        tracer = RingTracer(16)
        metrics = MetricsRegistry()
        ctrl.bind(tracer=tracer, metrics=metrics)
        ctrl.update(1)
        ctrl.shed(slot=7, input=2, output=3)
        assert ctrl.shed_packets == 1
        event = list(tracer.events)[-1]
        assert event["type"] == "admission_drop"
        assert (event["slot"], event["input"], event["output"]) == (7, 2, 3)
        assert metrics.counter("shed_packets").value == 1
        assert metrics.gauge("admission_state").value == 1

    @pytest.mark.parametrize("low,high", [(-1, 5), (6, 5)])
    def test_bad_watermarks_rejected(self, low, high):
        with pytest.raises(ValueError):
            AdmissionController(low, high)


class TestMakeAdmission:
    def test_none_passthrough(self):
        assert make_admission(None) is None

    def test_instance_passthrough(self):
        ctrl = AdmissionController(1, 2)
        assert make_admission(ctrl) is ctrl

    def test_pair_and_dict_forms(self):
        for spec in ((50, 100), [50, 100], {"low": 50, "high": 100}):
            ctrl = make_admission(spec)
            assert (ctrl.low, ctrl.high) == (50, 100)


class TestSimulationIntegration:
    def test_sheds_under_overload(self):
        result = run_simulation(OVERLOAD, "lcf_central_rr", 1.0, admission=(10, 30))
        assert result.shed > 0
        # Shed packets count toward offered, not toward PQ drops.
        assert result.offered >= result.forwarded + result.dropped + result.shed

    def test_no_shedding_at_moderate_load(self):
        config = SimConfig(n_ports=4, warmup_slots=10, measure_slots=200, seed=42)
        result = run_simulation(config, "lcf_central_rr", 0.5, admission=(50, 100))
        assert result.shed == 0

    def test_without_admission_shed_is_zero(self):
        result = run_simulation(OVERLOAD, "lcf_central_rr", 1.0)
        assert result.shed == 0

    def test_fast_matches_reference_with_admission(self):
        # Admission disables the fastpath slot kernel; both layers must
        # still agree bit for bit.
        from repro.fastpath.registry import _reference_kernels

        kwargs = dict(admission=(10, 30))
        with _reference_kernels():
            reference = run_simulation(OVERLOAD, "lcf_central_rr", 1.0, **kwargs)
        fast = run_simulation(OVERLOAD, "lcf_central_rr", 1.0, **kwargs)
        assert fast.row() == reference.row()
        assert fast.shed == reference.shed > 0

    def test_admission_drop_events_traced(self):
        tracer = RingTracer(1 << 16)
        result = run_simulation(
            OVERLOAD, "lcf_central_rr", 1.0, admission=(10, 30), tracer=tracer
        )
        drops = [e for e in tracer.events if e["type"] == "admission_drop"]
        assert len(drops) == result.shed > 0

    def test_metrics_track_shedding(self):
        metrics = MetricsRegistry()
        result = run_simulation(
            OVERLOAD, "lcf_central_rr", 1.0, admission=(10, 30), metrics=metrics
        )
        assert metrics.counter("shed_packets").value == result.shed > 0

    def test_shed_in_result_row(self):
        result = run_simulation(OVERLOAD, "lcf_central_rr", 1.0, admission=(10, 30))
        assert result.row()["shed"] == result.shed

    @pytest.mark.parametrize("name", ["fifo", "outbuf"])
    def test_dedicated_models_reject_admission(self, name):
        with pytest.raises(ValueError, match="admission"):
            build_switch(OVERLOAD, name, 0.9, admission=make_admission((1, 2)))
