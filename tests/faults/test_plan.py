"""FaultPlan construction, classification, and spec round-trips."""

import pytest

from repro.faults import (
    CrcBurst,
    FaultPlan,
    LinkOutage,
    PortDownInterval,
    PortDutyCycle,
)


class TestPrimitives:
    def test_port_down_interval_half_open(self):
        interval = PortDownInterval(2, 10, 20)
        assert not interval.active(9)
        assert interval.active(10)
        assert interval.active(19)
        assert not interval.active(20)

    def test_side_selects_halves(self):
        assert PortDownInterval(0, 0, 1, "input").hits_input
        assert not PortDownInterval(0, 0, 1, "input").hits_output
        assert not PortDownInterval(0, 0, 1, "output").hits_input
        both = PortDownInterval(0, 0, 1)
        assert both.hits_input and both.hits_output

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: PortDownInterval(-1, 0, 1),
            lambda: PortDownInterval(0, 5, 2),
            lambda: PortDownInterval(0, -1, 2),
            lambda: PortDownInterval(0, 0, 1, "sideways"),
            lambda: PortDutyCycle(0, 0, 0),
            lambda: PortDutyCycle(0, 10, 11),
            lambda: LinkOutage(-1, 0, 0, 1),
            lambda: LinkOutage(0, 0, 3, 1),
            lambda: CrcBurst(0, 0, 1, "bulk"),
            lambda: CrcBurst(-1, 0, 1),
        ],
    )
    def test_invalid_primitives_raise(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_duty_cycle_periodicity(self):
        duty = PortDutyCycle(1, period=10, down=3, offset=2)
        pattern = [duty.active(slot) for slot in range(2, 12)]
        assert pattern == [True] * 3 + [False] * 7
        assert [duty.active(s) for s in range(12, 22)] == pattern


class TestClassification:
    def test_empty_plan_is_null(self):
        plan = FaultPlan()
        assert plan.is_null
        assert not plan.has_message_faults
        assert not plan.has_topology_faults
        assert plan.describe() == "no faults"

    def test_zero_down_duty_is_null(self):
        plan = FaultPlan(port_duty=(PortDutyCycle(0, 10, 0),))
        assert plan.is_null
        assert not plan.has_topology_faults

    def test_message_only_plan(self):
        plan = FaultPlan.message_loss(0.1)
        assert not plan.is_null
        assert plan.has_message_faults
        assert not plan.has_topology_faults

    def test_topology_only_plan(self):
        plan = FaultPlan(port_down=(PortDownInterval(0, 5, 9),))
        assert not plan.is_null
        assert plan.has_topology_faults
        assert not plan.has_message_faults

    @pytest.mark.parametrize("field", ["request_loss", "grant_loss", "accept_loss"])
    def test_probabilities_validated(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})


class TestSpecRoundTrip:
    def test_empty_plan_flattens_to_empty(self):
        assert FaultPlan().to_spec() == ()

    def test_round_trip_preserves_plan(self):
        plan = FaultPlan(
            port_down=(PortDownInterval(1, 10, 20, "input"),),
            port_duty=(PortDutyCycle(2, 100, 7, 3),),
            link_down=(LinkOutage(0, 3, 5, 9),),
            request_loss=0.1,
            grant_loss=0.2,
            accept_loss=0.05,
            crc_bursts=(CrcBurst(4, 0, 10, "gnt"),),
        )
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_from_spec_accepts_dict(self):
        plan = FaultPlan.from_spec({"request_loss": 0.3})
        assert plan.request_loss == 0.3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_spec({"packet_loss": 0.1})

    def test_delay_is_not_a_plan_field(self):
        # Late delivery is not modelled; a spec that asks for it is refused.
        with pytest.raises(ValueError, match="delay"):
            FaultPlan.from_spec({"delay": 0.1})

    def test_spec_is_hashable_and_deterministic(self):
        plan = FaultPlan.message_loss(0.25)
        assert hash(plan.to_spec()) == hash(plan.to_spec())
        assert plan.to_spec() == FaultPlan.message_loss(0.25).to_spec()


class TestAvailabilityHelper:
    def test_full_availability_is_null(self):
        assert FaultPlan.availability(8, 1.0).is_null

    def test_duty_fraction_matches_target(self):
        plan = FaultPlan.availability(4, 0.9, period=100)
        assert len(plan.port_duty) == 4
        for duty in plan.port_duty:
            assert duty.down == 10
            assert duty.period == 100

    def test_offsets_staggered(self):
        plan = FaultPlan.availability(4, 0.9, period=100)
        offsets = {duty.offset for duty in plan.port_duty}
        assert len(offsets) == 4

    def test_port_subset(self):
        plan = FaultPlan.availability(8, 0.5, period=10, ports=(2, 5))
        assert {duty.port for duty in plan.port_duty} == {2, 5}
