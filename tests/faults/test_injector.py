"""FaultInjector: purity, determinism, and index validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ACCEPT,
    GRANT,
    REQUEST,
    FaultInjector,
    FaultPlan,
    LinkOutage,
    PortDownInterval,
    PortDutyCycle,
)


class TestValidation:
    def test_port_down_out_of_range(self):
        plan = FaultPlan(port_down=(PortDownInterval(4, 0, 1),))
        with pytest.raises(ValueError, match="port_down"):
            FaultInjector(plan, n=4)

    def test_duty_out_of_range(self):
        plan = FaultPlan(port_duty=(PortDutyCycle(7, 10, 1),))
        with pytest.raises(ValueError, match="port_duty"):
            FaultInjector(plan, n=4)

    def test_link_out_of_range(self):
        plan = FaultPlan(link_down=(LinkOutage(0, 9, 0, 1),))
        with pytest.raises(ValueError, match="link_down"):
            FaultInjector(plan, n=4)


class TestTopologyMasks:
    def test_healthy_slot_full_mask(self):
        injector = FaultInjector(FaultPlan(), n=4)
        assert injector.request_mask(0).all()
        assert not injector.degraded(0)
        assert not injector.down_inputs(0).any()
        assert not injector.down_outputs(0).any()

    def test_port_down_masks_row_and_column(self):
        plan = FaultPlan(port_down=(PortDownInterval(1, 10, 20),))
        injector = FaultInjector(plan, n=4)
        mask = injector.request_mask(15)
        assert not mask[1, :].any()
        assert not mask[:, 1].any()
        assert mask[0, 0] and mask[2, 3]
        assert injector.degraded(15)
        assert injector.request_mask(25).all()

    def test_input_side_masks_only_row(self):
        plan = FaultPlan(port_down=(PortDownInterval(2, 0, 5, "input"),))
        injector = FaultInjector(plan, n=4)
        mask = injector.request_mask(0)
        assert not mask[2, :].any()
        assert mask[:, 2].sum() == 3  # only row 2's entry is gone
        assert injector.down_inputs(0)[2]
        assert not injector.down_outputs(0)[2]

    def test_link_outage_masks_single_crosspoint(self):
        plan = FaultPlan(link_down=(LinkOutage(0, 3, 0, 10),))
        injector = FaultInjector(plan, n=4)
        mask = injector.request_mask(5)
        assert not mask[0, 3]
        assert mask.sum() == 15
        assert injector.degraded(5)
        assert not injector.down_inputs(5).any()

    def test_memo_does_not_leak_between_slots(self):
        plan = FaultPlan(port_down=(PortDownInterval(0, 2, 3),))
        injector = FaultInjector(plan, n=2)
        assert injector.request_mask(1).all()
        assert not injector.request_mask(2)[0].any()
        assert injector.request_mask(3).all()


class TestMessageFates:
    def test_zero_rate_always_survives(self):
        injector = FaultInjector(FaultPlan(), n=4)
        assert all(
            injector.message_survives(slot, 0, REQUEST, 0, 1) for slot in range(100)
        )

    def test_total_loss_never_survives(self):
        injector = FaultInjector(FaultPlan.message_loss(1.0), n=4)
        assert not any(
            injector.message_survives(slot, it, kind, 0, 1)
            for slot in range(20)
            for it in range(4)
            for kind in (REQUEST, GRANT, ACCEPT)
        )

    def test_purity_call_order_independent(self):
        plan = FaultPlan.message_loss(0.5)
        a = FaultInjector(plan, n=8, seed=42)
        b = FaultInjector(plan, n=8, seed=42)
        queries = [
            (slot, it, kind, src, dst)
            for slot in range(5)
            for it in range(3)
            for kind in (REQUEST, GRANT, ACCEPT)
            for src in range(4)
            for dst in range(4)
        ]
        forward = [a.message_survives(*q) for q in queries]
        backward = [b.message_survives(*q) for q in reversed(queries)]
        assert forward == list(reversed(backward))

    def test_seed_changes_fates(self):
        plan = FaultPlan.message_loss(0.5)
        fates = {
            seed: tuple(
                FaultInjector(plan, n=4, seed=seed).message_survives(
                    slot, 0, REQUEST, 0, 1
                )
                for slot in range(64)
            )
            for seed in (0, 1)
        }
        assert fates[0] != fates[1]

    def test_each_kind_has_its_own_loss_rate(self):
        injector = FaultInjector(FaultPlan(accept_loss=1.0), n=4)
        assert not any(
            injector.message_survives(slot, 0, ACCEPT, 0, 1) for slot in range(50)
        )
        assert all(
            injector.message_survives(slot, 0, kind, 0, 1)
            for slot in range(50)
            for kind in (REQUEST, GRANT)
        )

    @given(rate=st.floats(0.05, 0.95), seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_empirical_loss_rate_tracks_probability(self, rate, seed):
        injector = FaultInjector(FaultPlan.message_loss(rate), n=4, seed=seed)
        drops = sum(
            not injector.message_survives(slot, it, REQUEST, src, dst)
            for slot in range(50)
            for it in range(2)
            for src in range(4)
            for dst in range(4)
        )
        assert abs(drops / 1600 - rate) < 0.08


class TestCorruption:
    def test_burst_targets_host_channel_window(self):
        from repro.faults import CrcBurst

        plan = FaultPlan(crc_bursts=(CrcBurst(2, 10, 20, "cfg"),))
        injector = FaultInjector(plan, n=4)
        assert injector.corrupts(10, 2, "cfg")
        assert not injector.corrupts(10, 2, "gnt")
        assert not injector.corrupts(10, 1, "cfg")
        assert not injector.corrupts(20, 2, "cfg")

    def test_corruption_bit_in_range_and_deterministic(self):
        injector = FaultInjector(FaultPlan(), n=4, seed=9)
        bits = [injector.corruption_bit(slot, 1, 12) for slot in range(200)]
        assert all(0 <= bit < 96 for bit in bits)
        assert bits == [injector.corruption_bit(slot, 1, 12) for slot in range(200)]
        assert len(set(bits)) > 10
