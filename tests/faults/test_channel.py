"""Lossy control channel: the protocol survives any loss rate.

The key acceptance properties of the fault subsystem:

* every schedule produced under *any* loss rate is a valid conflict-free
  matching over the offered requests (property-tested at 0-100% loss);
* the protocol never raises, even at total loss;
* the matrix reference and the bitset kernel make bit-identical
  decisions under loss — the injector hands both the same per-message
  fates;
* with a zero-rate plan the lossy protocol reproduces the perfect
  channel exactly;
* each message kind's loss has its own, pinned effect (below);
* every other scheduler loses requests in the switch, and schedules
  only requests that survived.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcf_dist import LCFDistributed, LCFDistributedRR
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.faults import REQUEST, FaultInjector, FaultPlan
from repro.matching.verify import is_valid_schedule
from repro.baselines.registry import make_scheduler
from repro.fastpath.registry import _reference_kernels
from repro.sim.config import SimConfig
from repro.sim.simulator import build_switch, make_crossbar_scheduler
from repro.traffic.bernoulli import BernoulliUniform

from tests.conftest import request_matrices_of


def _injector(rate, n=8, seed=0):
    return FaultInjector(FaultPlan.message_loss(rate), n=n, seed=seed)


LOSSY_PROTOCOLS = [
    pytest.param(LCFDistributed, id="LossyLCFDistributed"),
    pytest.param(LCFDistributedRR, id="LossyLCFDistributedRR"),
    pytest.param(FastLCFDistributed, id="FastLossyLCFDistributed"),
    pytest.param(FastLCFDistributedRR, id="FastLossyLCFDistributedRR"),
]


class TestValidityUnderLoss:
    @pytest.mark.parametrize("cls", LOSSY_PROTOCOLS)
    @given(
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
        requests=request_matrices_of(6),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_schedule_valid(self, cls, rate, seed, requests):
        scheduler = cls(6, injector=_injector(rate, n=6, seed=seed))
        for _ in range(4):
            schedule = scheduler.schedule(requests)
            assert is_valid_schedule(requests, schedule)

    @pytest.mark.parametrize("cls", LOSSY_PROTOCOLS)
    def test_total_loss_yields_empty_schedule_without_raising(self, cls):
        scheduler = cls(4, injector=_injector(1.0, n=4))
        requests = np.ones((4, 4), dtype=bool)
        for _ in range(5):
            schedule = scheduler.schedule(requests)
            # Only the RR overlay's pre-match needs no message.
            assert (schedule == -1).all() or is_valid_schedule(requests, schedule)

    @pytest.mark.parametrize("name", ["pim", "islip", "lcf_central", "wfront", "lqf"])
    def test_switch_grants_only_requests_that_survived(self, name):
        config = SimConfig(n_ports=6, warmup_slots=0, measure_slots=60, seed=3)
        injector = _injector(0.4, n=6, seed=5)
        switch = build_switch(config, name, seed=3, injector=injector)
        assert switch.request_loss is injector
        pattern = BernoulliUniform(6, 0.9, seed=11)
        granted = 0
        for slot in range(60):
            # A grant to an empty VOQ would fail the forward; what is
            # left to check is one grant per output, each one delivered.
            schedule = switch.step(slot, pattern.arrivals()).tolist()
            outputs = [j for j in schedule if j >= 0]
            assert len(outputs) == len(set(outputs))
            for i, j in enumerate(schedule):
                if j >= 0:
                    assert injector.message_survives(slot, 0, REQUEST, i, j)
            granted += len(outputs)
        assert granted > 0


class TestZeroRateEquivalence:
    @pytest.mark.parametrize("cls", LOSSY_PROTOCOLS)
    def test_zero_rate_matches_perfect_channel(self, cls):
        lossy = cls(8, injector=_injector(0.0))
        plain = cls(8)
        rng = np.random.default_rng(7)
        for _ in range(30):
            requests = rng.random((8, 8)) < 0.4
            np.testing.assert_array_equal(
                lossy.schedule(requests), plain.schedule(requests)
            )
        for lossy_ptr, plain_ptr in zip(lossy.pointers, plain.pointers):
            np.testing.assert_array_equal(lossy_ptr, plain_ptr)


class TestMatrixAgentEquivalence:
    @given(
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_pure_drops_bit_identical(self, rate, seed):
        """The matrix reference and the bitset kernel draw identical
        per-message fates from the injector and so agree exactly."""
        matrix = LCFDistributed(6, injector=_injector(rate, n=6, seed=seed))
        kernel = FastLCFDistributed(6, injector=_injector(rate, n=6, seed=seed))
        rng = np.random.default_rng(seed)
        for _ in range(10):
            requests = rng.random((6, 6)) < 0.5
            np.testing.assert_array_equal(
                matrix.schedule(requests), kernel.schedule(requests)
            )


class TestMessageKinds:
    """One kind lost entirely, on the reference protocol: no match can
    commit, and since pointers only move on a committed match, none
    moves."""

    @pytest.mark.parametrize("kind", ["request_loss", "grant_loss", "accept_loss"])
    def test_total_loss_of_one_kind_matches_nothing(self, kind):
        n = 6
        injector = FaultInjector(FaultPlan(**{kind: 1.0}), n=n, seed=4)
        scheduler = LCFDistributed(n, injector=injector)
        rng = np.random.default_rng(2)
        for _ in range(10):
            requests = rng.random((n, n)) < 0.6
            assert (scheduler.schedule(requests) == -1).all()
        grant_ptr, accept_ptr = scheduler.pointers
        assert not grant_ptr.any()
        assert not accept_ptr.any()

    def test_nrq_counts_requests_sent_ngt_counts_delivered(self):
        """Under request loss the sender-side nrq still counts every
        request sent; the trace's request matrix and ngt count only the
        ones delivered."""
        n = 8
        injector = FaultInjector(FaultPlan(request_loss=0.5), n=n, seed=9)
        scheduler = LCFDistributed(n, injector=injector)
        scheduler.record_trace = True
        rng = np.random.default_rng(3)
        lost = 0
        for _ in range(20):
            requests = rng.random((n, n)) < 0.7
            scheduler.schedule(requests)
            first = scheduler.last_trace[0]
            # Nothing is matched before iteration 1: every request is sent.
            np.testing.assert_array_equal(first.nrq, requests.sum(axis=1))
            assert not (first.requests & ~requests).any()
            lost += int(requests.sum() - first.requests.sum())
            for it in scheduler.last_trace:
                np.testing.assert_array_equal(it.ngt, it.requests.sum(axis=0))
                assert (it.requests.sum(axis=1) <= it.nrq).all()
        assert lost > 0


class TestFactory:
    def test_protocol_names_get_faithful_implementation(self):
        injector = _injector(0.1, n=4)
        with _reference_kernels():
            reference = make_crossbar_scheduler("lcf_dist", 4, injector=injector)
            reference_rr = make_crossbar_scheduler("lcf_dist_rr", 4, injector=injector)
        assert type(reference) is LCFDistributed
        assert type(reference_rr) is LCFDistributedRR
        # Outside the override the bitset kernels of the same protocol.
        kernel = make_crossbar_scheduler("lcf_dist", 4, injector=injector)
        kernel_rr = make_crossbar_scheduler("lcf_dist_rr", 4, injector=injector)
        assert type(kernel) is FastLCFDistributed
        assert type(kernel_rr) is FastLCFDistributedRR
        for scheduler in (reference, reference_rr, kernel, kernel_rr):
            assert scheduler.injector is injector

    def test_other_names_lose_requests_in_the_switch(self):
        injector = _injector(0.1, n=4)
        config = SimConfig(n_ports=4)
        for name in ("pim", "islip", "lcf_central", "lqf"):
            scheduler = make_crossbar_scheduler(name, 4, seed=2, injector=injector)
            assert type(scheduler) is type(make_crossbar_scheduler(name, 4, seed=2))
            assert getattr(scheduler, "injector", None) is None
            assert build_switch(config, name, injector=injector).request_loss is injector
