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
* each message kind's loss has its own, pinned effect (below).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcf_dist import LCFDistributed, LCFDistributedRR
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RequestLossFilter,
    make_lossy_scheduler,
)
from repro.matching.verify import is_valid_schedule
from repro.baselines.registry import make_scheduler
from repro.fastpath.registry import _reference_kernels

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
            reference = make_lossy_scheduler("lcf_dist", 4, injector)
            reference_rr = make_lossy_scheduler("lcf_dist_rr", 4, injector)
        assert type(reference) is LCFDistributed
        assert type(reference_rr) is LCFDistributedRR
        # Outside the override the bitset kernels of the same protocol.
        kernel = make_lossy_scheduler("lcf_dist", 4, injector)
        kernel_rr = make_lossy_scheduler("lcf_dist_rr", 4, injector)
        assert type(kernel) is FastLCFDistributed
        assert type(kernel_rr) is FastLCFDistributedRR
        for scheduler in (reference, reference_rr, kernel, kernel_rr):
            assert scheduler.injector is injector

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
