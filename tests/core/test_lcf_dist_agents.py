"""Distributed LCF port by port: the two implementations agree, and the
Section 6.2 wire traffic counted from the decision records.

The Section 5 protocol is implemented twice — the matrix computation
(:class:`~repro.core.lcf_dist.LCFDistributed`) and its bitset kernel,
which keeps every port's view as its own mask. Per executed iteration
the :class:`~repro.core.lcf_dist.IterationTrace` records every message
on the wires: each delivered request, each grant, each accept. Priced
with the Figure 10b field widths they give the traffic of one cycle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcf_dist import LCFDistributed
from repro.fastpath.lcf_dist import FastLCFDistributed
from repro.hw.comm import distributed_bits, distributed_messages
from repro.matching.verify import is_valid_schedule
from repro.obs import events as ev
from repro.obs.analytics import MessageAccountingProbe

from tests.conftest import request_matrices


def traced(n, iterations=4):
    scheduler = LCFDistributed(n, iterations)
    scheduler.record_trace = True
    return scheduler


def wire_log(scheduler):
    """``(requests, grants, accepts, bits)`` the last cycle put on the
    wires, counted from its iteration records."""
    fields = distributed_messages(scheduler.n)
    trace = scheduler.last_trace
    requests = sum(int(it.requests.sum()) for it in trace)
    grants = sum(int(it.grants.sum()) for it in trace)
    accepts = sum(len(it.accepts) for it in trace)
    bits = (
        requests * fields["request"].bits
        + grants * fields["grant"].bits
        + accepts * fields["accept"].bits
    )
    return requests, grants, accepts, bits


class TestMessageFormats:
    def test_field_widths_match_figure10b(self):
        fields = distributed_messages(16)
        assert fields["request"].fields == {"req": 1, "nrq": 4}
        assert fields["grant"].fields == {"gnt": 1, "ngt": 4}
        assert fields["accept"].fields == {"acc": 1}


class TestEquivalence:
    @given(request_matrices(min_n=2, max_n=6), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_single_cycle_matches_matrix_implementation(self, requests, iterations):
        n = requests.shape[0]
        kernel = FastLCFDistributed(n, iterations)
        matrix = LCFDistributed(n, iterations)
        assert (kernel.schedule(requests) == matrix.schedule(requests)).all()

    def test_long_run_stays_synchronised(self):
        """Pointers must evolve identically, so matchings agree forever."""
        rng = np.random.default_rng(0)
        n = 6
        kernel = FastLCFDistributed(n, iterations=4)
        matrix = LCFDistributed(n, iterations=4)
        for _ in range(100):
            requests = rng.random((n, n)) < 0.5
            assert (kernel.schedule(requests) == matrix.schedule(requests)).all()

    @given(request_matrices(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_schedule_always_valid(self, requests):
        for scheduler in (
            LCFDistributed(requests.shape[0]),
            FastLCFDistributed(requests.shape[0]),
        ):
            assert is_valid_schedule(requests, scheduler.schedule(requests))


class TestWireAccounting:
    def test_empty_matrix_sends_nothing(self):
        scheduler = traced(4)
        scheduler.schedule(np.zeros((4, 4), dtype=bool))
        assert wire_log(scheduler) == (0, 0, 0, 0)

    def test_request_counts_match_protocol(self):
        # A permutation matrix: n requests, n grants, n accepts, done in
        # one iteration (iteration 2 has nothing left to send).
        n = 4
        scheduler = traced(n)
        scheduler.schedule(np.eye(n, dtype=bool))
        requests, grants, accepts, _ = wire_log(scheduler)
        assert requests == n
        assert grants == n
        assert accepts == n

    def test_bits_never_exceed_section62_budget(self):
        """The paper's i*n^2*(2 log2 n + 3) is the wiring capacity; the
        actual traffic must fit inside it for every workload — and the
        telemetry probe must price the same records identically."""
        rng = np.random.default_rng(1)
        n, iterations = 8, 4
        scheduler = traced(n, iterations)
        budget = distributed_bits(n, iterations)
        for slot in range(50):
            requests = rng.random((n, n)) < rng.random()
            scheduler.schedule(requests)
            bits = wire_log(scheduler)[3]
            assert bits <= budget
            probe = MessageAccountingProbe(n, iterations).consume(
                ev.iteration(
                    slot,
                    k,
                    int(it.grants.sum()),
                    len(it.accepts),
                    requests=int(it.requests.sum()),
                )
                for k, it in enumerate(scheduler.last_trace)
            )
            assert probe.live_bits == bits

    def test_full_matrix_first_iteration_saturates_request_wires(self):
        # All n^2 request wires carry a message in iteration 1.
        n = 4
        scheduler = traced(n, iterations=1)
        scheduler.schedule(np.ones((n, n), dtype=bool))
        assert wire_log(scheduler)[0] == n * n

    def test_matched_ports_stop_talking(self):
        # After convergence on a permutation, extra iterations add zero
        # messages.
        n = 4
        one = traced(n, iterations=1)
        many = traced(n, iterations=8)
        one.schedule(np.eye(n, dtype=bool))
        many.schedule(np.eye(n, dtype=bool))
        assert wire_log(one) == wire_log(many)


class TestAgentIsolation:
    def test_agents_share_no_arrays(self):
        """The decision records are the scheduler's own copies —
        mutating one cannot leak into another record or the caller."""
        n = 4
        scheduler = traced(n)
        requests = np.ones((n, n), dtype=bool)
        scheduler.schedule(requests)
        records = [it.requests for it in scheduler.last_trace]
        records[0][:] = False
        assert requests.all()
        # One match per round on the full matrix: 16, 9, 4, 1 live.
        assert [int(r.sum()) for r in records[1:]] == [9, 4, 1]

    def test_reset_rebuilds_agents(self):
        """reset() returns every port's pointer to power-on."""
        for scheduler in (traced(4), FastLCFDistributed(4)):
            scheduler.record_trace = True
            scheduler.schedule(np.ones((4, 4), dtype=bool))
            scheduler.reset()
            grant_ptr, accept_ptr = scheduler.pointers
            assert not grant_ptr.any()
            assert not accept_ptr.any()
            assert scheduler.last_trace == []
