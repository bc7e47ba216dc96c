"""Bit-identity of the fastpath kernels against their reference twins.

The fastpath layer's entire contract is "same results, faster": every
covered scheduler must emit the exact schedule its reference twin emits,
slot after slot, with identical internal state evolution (round-robin
offsets, iSLIP pointers, PIM's random stream) and identical decision
traces. The fast tier checks the kernels pairwise on random matrix
sequences; the ``slow``-marked sweep drives whole simulations — every
registry scheduler crossed with fault plans — and requires equal
statistics rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.registry import (
    SPECIAL_SWITCH_NAMES,
    available_schedulers,
    make_scheduler,
)
from repro.fastpath.registry import (
    _reference_kernels,
    fast_schedulers,
    make_fast_scheduler,
)
from repro.faults import FaultPlan, PortDownInterval
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

FAST_NAMES = fast_schedulers()


@st.composite
def matrix_runs(draw, min_n=1, max_n=8, max_len=10):
    """A switch width and a sequence of request matrices at that width."""
    n = draw(st.integers(min_n, max_n))
    length = draw(st.integers(1, max_len))
    matrices = [
        draw(arrays(np.bool_, (n, n), elements=st.booleans()))
        for _ in range(length)
    ]
    return n, matrices


def make_pair(name, n):
    return make_scheduler(name, n), make_fast_scheduler(name, n)


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", FAST_NAMES)
    @given(run=matrix_runs())
    @settings(max_examples=40, deadline=None)
    def test_schedules_and_state_bit_identical(self, name, run):
        n, matrices = run
        reference, fast = make_pair(name, n)
        for matrix in matrices:
            expected = reference.schedule(matrix)
            copy = matrix.copy()
            actual = fast.schedule(copy)
            assert np.array_equal(expected, actual)
            # The fast entry point skips the defensive copy; it must
            # still leave the caller's matrix untouched.
            assert (copy == matrix).all()
            if name == "pim":
                assert fast._rng.bit_generator.state == reference._rng.bit_generator.state
        if name in ("lcf_central", "lcf_central_rr"):
            assert fast.rr_offsets == reference.rr_offsets
        if name in ("islip", "lcf_dist", "lcf_dist_rr"):
            for ref_ptr, fast_ptr in zip(reference.pointers, fast.pointers):
                assert np.array_equal(ref_ptr, fast_ptr)
        if name == "wfront":
            assert fast.offset == reference.offset

    @pytest.mark.parametrize("name", ["lcf_central", "lcf_central_rr"])
    @given(run=matrix_runs(min_n=2, max_n=6, max_len=6))
    @settings(max_examples=25, deadline=None)
    def test_decision_traces_bit_identical(self, name, run):
        n, matrices = run
        reference, fast = make_pair(name, n)
        reference.record_trace = fast.record_trace = True
        for matrix in matrices:
            reference.schedule(matrix)
            fast.schedule(matrix)
            assert len(fast.last_trace) == len(reference.last_trace)
            for ref_step, fast_step in zip(reference.last_trace, fast.last_trace):
                assert fast_step.output == ref_step.output
                assert fast_step.rr_row == ref_step.rr_row
                assert fast_step.granted == ref_step.granted
                assert fast_step.rr_won == ref_step.rr_won
                assert np.array_equal(fast_step.nrq_before, ref_step.nrq_before)

    @pytest.mark.parametrize("name", ["lcf_dist", "lcf_dist_rr"])
    @given(run=matrix_runs(min_n=2, max_n=6, max_len=6))
    @settings(max_examples=25, deadline=None)
    def test_distributed_iteration_traces_bit_identical(self, name, run):
        n, matrices = run
        reference, fast = make_pair(name, n)
        reference.record_trace = fast.record_trace = True
        for matrix in matrices:
            reference.schedule(matrix)
            fast.schedule(matrix)
            assert len(fast.last_trace) == len(reference.last_trace)
            for ref_it, fast_it in zip(reference.last_trace, fast.last_trace):
                assert np.array_equal(fast_it.requests, ref_it.requests)
                assert np.array_equal(fast_it.nrq, ref_it.nrq)
                assert np.array_equal(fast_it.grants, ref_it.grants)
                assert np.array_equal(fast_it.ngt, ref_it.ngt)
                assert fast_it.accepts == ref_it.accepts

    @pytest.mark.parametrize("name", ["lcf_dist", "lcf_dist_rr"])
    @pytest.mark.parametrize(
        "width", [None, 63, 64, 65, pytest.param(128, marks=pytest.mark.slow)]
    )
    @given(
        data=st.data(),
        request_loss=st.floats(0.0, 0.6),
        grant_loss=st.floats(0.0, 0.6),
        accept_loss=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_lossy_channel_composition_bit_identical(
        self, name, width, data, request_loss, grant_loss, accept_loss, seed
    ):
        # The per-message lossy protocol and its bitset kernel must
        # agree cycle for cycle: schedules AND iteration traces,
        # including the stale sender-side nrq advisory under loss.
        # ``width`` None draws small switches; the fixed widths straddle
        # the 64-bit word, where a lossy kernel joins its word tuples.
        from repro.faults.injector import FaultInjector
        from repro.sim.simulator import make_crossbar_scheduler

        if width is None:
            n, matrices = data.draw(matrix_runs(min_n=2, max_n=6, max_len=6))
        else:
            n = width
            rng = np.random.default_rng(seed)
            matrices = [
                rng.random((n, n)) < rng.uniform(0.1, 0.9) for _ in range(2)
            ]
        plan = FaultPlan(
            request_loss=request_loss,
            grant_loss=grant_loss,
            accept_loss=accept_loss,
        )
        with _reference_kernels():
            reference = make_crossbar_scheduler(
                name, n, injector=FaultInjector(plan, n, seed=seed)
            )
        fast = make_crossbar_scheduler(
            name, n, injector=FaultInjector(plan, n, seed=seed)
        )
        reference.record_trace = fast.record_trace = True
        for matrix in matrices:
            assert np.array_equal(reference.schedule(matrix), fast.schedule(matrix))
            assert len(fast.last_trace) == len(reference.last_trace)
            for ref_it, fast_it in zip(reference.last_trace, fast.last_trace):
                assert np.array_equal(fast_it.requests, ref_it.requests)
                assert np.array_equal(fast_it.nrq, ref_it.nrq)
                assert np.array_equal(fast_it.grants, ref_it.grants)
                assert np.array_equal(fast_it.ngt, ref_it.ngt)
                assert fast_it.accepts == ref_it.accepts
            for ref_ptr, fast_ptr in zip(reference.pointers, fast.pointers):
                assert np.array_equal(ref_ptr, fast_ptr)

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_reset_rewinds_both_twins_to_the_same_state(self, name):
        rng = np.random.default_rng(5)
        reference, fast = make_pair(name, 6)
        first_run = []
        for _ in range(20):
            matrix = rng.random((6, 6)) < 0.5
            first_run.append(matrix)
            reference.schedule(matrix)
            fast.schedule(matrix)
        reference.reset()
        fast.reset()
        for matrix in first_run:
            assert np.array_equal(reference.schedule(matrix), fast.schedule(matrix))

    def test_fig3_worked_example(self, fig3_requests):
        # The paper's Figure 3 allocation, via both layers.
        reference, fast = make_pair("lcf_central", 4)
        assert np.array_equal(
            reference.schedule(fig3_requests), fast.schedule(fig3_requests)
        )

    @given(st.integers(1, 30), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_pim_stream_premise_choice_equals_bounded_integers(self, mask, seed):
        # FastPIM's bit-identity rests on rng.choice over a 1-D index
        # array consuming the stream exactly like one bounded integers()
        # draw. Pin that numpy contract explicitly.
        indices = np.flatnonzero(
            np.array([mask >> j & 1 for j in range(5)], dtype=bool)
        )
        a = np.random.default_rng(seed).choice(indices)
        b = indices[int(np.random.default_rng(seed).integers(0, len(indices)))]
        assert a == b


class TestWordBoundaryEquivalence:
    """The multi-word dispatch must be seamless across the 64-bit edge:
    one bit below, exactly at, one bit above, and two full words."""

    @pytest.mark.parametrize("name", FAST_NAMES)
    @pytest.mark.parametrize("n", [63, 64, 65, 128])
    def test_schedules_bit_identical_at_word_boundaries(self, name, n):
        rng = np.random.default_rng(n)
        reference, fast = make_pair(name, n)
        for _ in range(3):
            matrix = rng.random((n, n)) < rng.uniform(0.1, 0.9)
            assert np.array_equal(reference.schedule(matrix), fast.schedule(matrix))

    @pytest.mark.parametrize("n", [63, 64, 65, 128])
    def test_wavefront_sequence_bit_identical_at_word_boundaries(self, n):
        # The wave rotations straddle the word edge; a 50-matrix run
        # walks the starting diagonal through most of its n positions.
        rng = np.random.default_rng(n)
        reference, fast = make_pair("wfront", n)
        for _ in range(50):
            matrix = rng.random((n, n)) < rng.uniform(0.05, 0.95)
            assert np.array_equal(reference.schedule(matrix), fast.schedule(matrix))
            assert fast.offset == reference.offset

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 64, 65, 128])
    def test_pim_stream_position_after_every_call(self, n):
        # FastPIM decodes a call's draws from raw PCG64 blocks, then
        # sets the generator where the reference's per-draw calls leave
        # it — buffered 32-bit half included. A checkpoint taken after
        # any call depends on that.
        rng = np.random.default_rng(n)
        reference, fast = make_pair("pim", n)
        for density in (0.05, 0.3, 0.9):
            for _ in range(6):
                matrix = rng.random((n, n)) < density
                assert np.array_equal(reference.schedule(matrix), fast.schedule(matrix))
                assert fast._rng.bit_generator.state == reference._rng.bit_generator.state

    @pytest.mark.parametrize("name", ["lcf_dist", "lcf_dist_rr"])
    def test_distributed_traces_bit_identical_across_the_boundary(self, name):
        n = 65
        rng = np.random.default_rng(1)
        reference, fast = make_pair(name, n)
        reference.record_trace = fast.record_trace = True
        matrix = rng.random((n, n)) < 0.3
        reference.schedule(matrix)
        fast.schedule(matrix)
        assert len(fast.last_trace) == len(reference.last_trace)
        for ref_it, fast_it in zip(reference.last_trace, fast.last_trace):
            assert np.array_equal(fast_it.requests, ref_it.requests)
            assert np.array_equal(fast_it.nrq, ref_it.nrq)
            assert np.array_equal(fast_it.grants, ref_it.grants)
            assert np.array_equal(fast_it.ngt, ref_it.ngt)
            assert fast_it.accepts == ref_it.accepts


CROSSBAR_SCHEDULERS = tuple(
    name for name in available_schedulers() if name not in SPECIAL_SWITCH_NAMES
)


def fault_plans(n=4, horizon=60):
    """Null, topology, message-loss, and combined plans."""
    return st.one_of(
        st.just(None),
        st.just(FaultPlan(port_down=(PortDownInterval(n - 1, 10, 30, "input"),))),
        st.floats(0.05, 0.4).map(lambda p: FaultPlan(request_loss=p)),
        st.floats(0.5, 0.95).map(
            lambda a: FaultPlan.availability(n, a, period=horizon // 2)
        ),
        st.floats(0.05, 0.3).map(
            lambda p: FaultPlan(
                port_down=(PortDownInterval(0, 5, 25, "output"),),
                request_loss=p,
                grant_loss=p,
            )
        ),
    )


@pytest.mark.slow
@given(
    scheduler=st.sampled_from(CROSSBAR_SCHEDULERS),
    plan=fault_plans(),
    load=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_full_simulation_equivalence_sweep(scheduler, plan, load, seed):
    """The bitset kernels are bit-identical end to end, fault plans included.

    Covers the whole registry: covered names exercise the bitset kernels
    (and the fast slot loop when uninstrumented), uncovered names prove
    the fallback changes nothing.
    """
    config = SimConfig(n_ports=4, warmup_slots=10, measure_slots=50, seed=seed)
    with _reference_kernels():
        reference = run_simulation(
            config, scheduler, load, faults=plan, collect_percentiles=True
        )
    fast = run_simulation(config, scheduler, load, faults=plan, collect_percentiles=True)
    assert reference.row() == fast.row()
