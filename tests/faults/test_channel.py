"""Lossy control channel: the protocol survives any loss rate.

The key acceptance properties of the fault subsystem:

* every schedule produced under *any* loss/delay combination is a valid
  conflict-free matching over the offered requests (property-tested at
  0-100% loss);
* the protocol never raises, even at total loss;
* at ``delay=0`` the matrix implementation and the message-passing
  agent implementation make bit-identical decisions — the injector
  hands both the same per-message fates;
* with a zero-rate plan both lossy implementations reproduce their
  perfect-channel counterparts exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcf_dist import LCFDistributed, LCFDistributedRR
from repro.core.lcf_dist_agents import LCFDistributedAgents
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LossyLCFDistributed,
    LossyLCFDistributedAgents,
    LossyLCFDistributedRR,
    RequestLossFilter,
    make_lossy_scheduler,
)
from repro.matching.verify import is_valid_schedule
from repro.baselines.registry import make_scheduler
from repro.faults.channel import FastLossyLCFDistributed, FastLossyLCFDistributedRR
from repro.fastpath.registry import _reference_kernels

from tests.conftest import request_matrices_of


def _injector(rate, delay=0.0, n=8, seed=0):
    return FaultInjector(FaultPlan.message_loss(rate, delay=delay), n=n, seed=seed)


LOSSY_CLASSES = [LossyLCFDistributed, LossyLCFDistributedRR, LossyLCFDistributedAgents]


class TestValidityUnderLoss:
    @pytest.mark.parametrize("cls", LOSSY_CLASSES)
    @given(
        rate=st.floats(0.0, 1.0),
        delay=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
        requests=request_matrices_of(6),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_schedule_valid(self, cls, rate, delay, seed, requests):
        scheduler = cls(6, _injector(rate, delay, n=6, seed=seed))
        for _ in range(4):
            schedule = scheduler.schedule(requests)
            assert is_valid_schedule(requests, schedule)

    @pytest.mark.parametrize("cls", LOSSY_CLASSES)
    def test_total_loss_yields_empty_schedule_without_raising(self, cls):
        scheduler = cls(4, _injector(1.0, n=4))
        requests = np.ones((4, 4), dtype=bool)
        for _ in range(5):
            schedule = scheduler.schedule(requests)
            assert (schedule == -1).all() or is_valid_schedule(requests, schedule)

    def test_request_loss_filter_valid_under_loss(self):
        for name in ("pim", "islip", "lcf_central", "wfront"):
            scheduler = RequestLossFilter(
                make_scheduler(name, 6, seed=3), _injector(0.4, n=6, seed=5)
            )
            rng = np.random.default_rng(11)
            for _ in range(10):
                requests = rng.random((6, 6)) < 0.5
                schedule = scheduler.schedule(requests)
                assert is_valid_schedule(requests, schedule)


class TestZeroRateEquivalence:
    @pytest.mark.parametrize(
        "lossy_cls, plain_cls",
        [
            (LossyLCFDistributed, LCFDistributed),
            (LossyLCFDistributedRR, LCFDistributedRR),
            (LossyLCFDistributedAgents, LCFDistributedAgents),
        ],
    )
    def test_zero_rate_matches_perfect_channel(self, lossy_cls, plain_cls):
        lossy = lossy_cls(8, _injector(0.0))
        plain = plain_cls(8)
        rng = np.random.default_rng(7)
        for _ in range(30):
            requests = rng.random((8, 8)) < 0.4
            np.testing.assert_array_equal(
                lossy.schedule(requests), plain.schedule(requests)
            )


class TestMatrixAgentEquivalence:
    @given(
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_pure_drops_bit_identical(self, rate, seed):
        """At delay=0 the matrix and agent protocols draw identical
        per-message fates from the injector and so agree exactly."""
        matrix = LossyLCFDistributed(6, _injector(rate, n=6, seed=seed))
        agents = LossyLCFDistributedAgents(6, _injector(rate, n=6, seed=seed))
        rng = np.random.default_rng(seed)
        for _ in range(10):
            requests = rng.random((6, 6)) < 0.5
            np.testing.assert_array_equal(
                matrix.schedule(requests), agents.schedule(requests)
            )

    @given(
        rate=st.floats(0.0, 0.6),
        delay=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**12),
    )
    @settings(max_examples=25, deadline=None)
    def test_delay_path_never_raises_and_counts_messages(self, rate, delay, seed):
        agents = LossyLCFDistributedAgents(6, _injector(rate, delay, n=6, seed=seed))
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            requests = rng.random((6, 6)) < 0.5
            schedule = agents.schedule(requests)
            assert is_valid_schedule(requests, schedule)
        if rate > 0.2:
            assert agents.dropped_messages > 0
        if delay > 0.2:
            assert agents.delayed_messages > 0


class TestFactory:
    def test_protocol_names_get_faithful_implementation(self):
        injector = _injector(0.1, n=4)
        with _reference_kernels():
            assert isinstance(
                make_lossy_scheduler("lcf_dist", 4, injector), LossyLCFDistributed
            )
            assert isinstance(
                make_lossy_scheduler("lcf_dist_rr", 4, injector),
                LossyLCFDistributedRR,
            )
        # Outside the override the bitset twins of the same protocol.
        assert isinstance(
            make_lossy_scheduler("lcf_dist", 4, injector), FastLossyLCFDistributed
        )
        assert isinstance(
            make_lossy_scheduler("lcf_dist_rr", 4, injector), FastLossyLCFDistributedRR
        )

    def test_other_names_get_request_filter(self):
        injector = _injector(0.1, n=4)
        for name in ("pim", "islip", "lcf_central", "lqf"):
            scheduler = make_lossy_scheduler(name, 4, injector, seed=2)
            assert isinstance(scheduler, RequestLossFilter)
            assert scheduler.n == 4

    def test_filter_passes_weighted_scheduling_through(self):
        injector = _injector(0.0, n=4)
        filtered = make_lossy_scheduler("lqf", 4, injector)
        plain = make_scheduler("lqf", 4)
        weights = np.arange(16, dtype=np.int64).reshape(4, 4)
        np.testing.assert_array_equal(
            filtered.schedule_weighted(weights.copy()),
            plain.schedule_weighted(weights.copy()),
        )
