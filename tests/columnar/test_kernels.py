"""Batched kernels vs serial schedulers: schedules and state, bit for bit.

Each columnar kernel claims that one ``schedule_batch`` call equals R
independent serial ``schedule`` calls — same grants, same tie-breaks,
same end-of-cycle round-robin/pointer state — over any request
sequence. The hypothesis cases drive random multi-slot sequences at
random widths; the word-boundary widths (63/64/65) and a wide case run
as fixed seeds, the full-width sweep under ``-m slow``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.columnar.kernels as kernels_mod
from repro.baselines.registry import make_scheduler
from repro.columnar.bitpack import pack_requests, unpack_requests
from repro.columnar.kernels import (
    ColumnarISLIP,
    ColumnarLCFCentral,
    chain_table,
    columnar_kernel_bytes,
    columnar_schedulers,
    has_columnar_kernel,
    make_columnar_kernel,
)
from repro.fastpath.bitops import word_count

COVERED = columnar_schedulers()


@st.composite
def batch_runs(draw, min_n=1, max_n=8, max_r=5, max_len=8):
    """A width, a replicate count, and a request-tensor sequence."""
    n = draw(st.integers(min_n, max_n))
    r = draw(st.integers(1, max_r))
    length = draw(st.integers(1, max_len))
    tensors = [
        draw(arrays(np.bool_, (r, n, n), elements=st.booleans()))
        for _ in range(length)
    ]
    return n, r, tensors


def edge_tensors(case):
    """``(n, r, tensors)`` for a request pattern the batched step must
    get right; tensors are ``[replicate, input, output]``."""
    rng = np.random.default_rng(len(case))
    if case == "all_false":
        return 5, 3, [np.zeros((3, 5, 5), dtype=bool)] * 6
    if case == "all_true":
        return 5, 3, [np.ones((3, 5, 5), dtype=bool)] * 11
    if case == "column_of_matched_inputs":
        # First cycle (I = J = 0): input 0 wins output 0, then is the
        # only requester of output 1, so that column grants nothing.
        requests = np.zeros((2, 3, 3), dtype=bool)
        requests[:, 0, [0, 1]] = True
        requests[1, 2, 2] = True
        return 3, 2, [requests] * 4
    if case == "matched_diagonal_requester":
        # First cycle: input 1 wins output 0 at step 0, then is the
        # chain start of step 1 and requests output 1, but is matched:
        # output 1 goes to input 2.
        requests = np.zeros((2, 3, 3), dtype=bool)
        requests[:, 1, [0, 1]] = True
        requests[:, 2, 1] = True
        return 3, 2, [requests] * 4
    if case in ("n1_r1", "n2_r1"):
        n = int(case[1])
        return n, 1, [rng.random((1, n, n)) < 0.6 for _ in range(8)]
    raise ValueError(case)


def run_both(name, n, r, tensors):
    """Drive the kernel and R serial schedulers over the same sequence."""
    kernel = make_columnar_kernel(name, n, r)
    serials = [make_scheduler(name, n) for _ in range(r)]
    for requests in tensors:
        requests_t = np.ascontiguousarray(requests.transpose(0, 2, 1))
        before = requests_t.copy()
        batch = kernel.schedule_batch(requests_t)
        assert (requests_t == before).all(), "kernel mutated its input"
        for rep in range(r):
            expected = serials[rep].schedule(requests[rep])
            assert np.array_equal(batch[rep], expected), (name, n, rep)
    return kernel, serials


def assert_state_matches(name, kernel, serials):
    if isinstance(kernel, ColumnarLCFCentral):
        for serial in serials:
            assert kernel.rr_offsets == serial.rr_offsets
    if isinstance(kernel, ColumnarISLIP):
        grant, accept = kernel.pointers
        for rep, serial in enumerate(serials):
            ref_grant, ref_accept = serial.pointers
            assert np.array_equal(grant[rep], ref_grant)
            assert np.array_equal(accept[rep], ref_accept)


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", COVERED)
    @given(run=batch_runs())
    @settings(max_examples=30, deadline=None)
    @example(run=edge_tensors("all_false"))
    @example(run=edge_tensors("all_true"))
    @example(run=edge_tensors("column_of_matched_inputs"))
    @example(run=edge_tensors("matched_diagonal_requester"))
    @example(run=edge_tensors("n1_r1"))
    @example(run=edge_tensors("n2_r1"))
    def test_schedules_and_state_bit_identical(self, name, run):
        n, r, tensors = run
        kernel, serials = run_both(name, n, r, tensors)
        assert_state_matches(name, kernel, serials)

    def test_edge_requests_hit_the_sentinel_and_the_matched_diagonal(self):
        # The hand-built cases do what their comments say (first cycle).
        n, r, tensors = edge_tensors("column_of_matched_inputs")
        batch = make_columnar_kernel("lcf_central", n, r).schedule_batch(
            np.ascontiguousarray(tensors[0].transpose(0, 2, 1))
        )
        assert batch.tolist() == [[0, -1, -1], [0, -1, 2]]
        n, r, tensors = edge_tensors("matched_diagonal_requester")
        batch = make_columnar_kernel("lcf_central_rr", n, r).schedule_batch(
            np.ascontiguousarray(tensors[0].transpose(0, 2, 1))
        )
        assert batch.tolist() == [[-1, 0, 1]] * 2

    @pytest.mark.parametrize("name", COVERED)
    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_word_boundary_widths(self, name, n):
        rng = np.random.default_rng(7 * n)
        tensors = [rng.random((3, n, n)) < 0.4 for _ in range(4)]
        kernel, serials = run_both(name, n, 3, tensors)
        assert_state_matches(name, kernel, serials)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", COVERED)
    def test_wide_switch_long_run(self, name):
        n, r = 128, 4
        rng = np.random.default_rng(1234)
        tensors = [rng.random((r, n, n)) < d for d in (0.05, 0.3, 0.6, 0.9) for _ in range(3)]
        kernel, serials = run_both(name, n, r, tensors)
        assert_state_matches(name, kernel, serials)

    @pytest.mark.parametrize("name", COVERED)
    def test_reset_restores_power_on_state(self, name):
        n, r = 6, 3
        rng = np.random.default_rng(42)
        tensors = [rng.random((r, n, n)) < 0.5 for _ in range(5)]
        kernel, _ = run_both(name, n, r, tensors)
        kernel.reset()
        # After reset the kernel replays a fresh serial scheduler exactly.
        run_tensors = [rng.random((r, n, n)) < 0.5 for _ in range(3)]
        serials = [make_scheduler(name, n) for _ in range(r)]
        for requests in run_tensors:
            batch = kernel.schedule_batch(
                np.ascontiguousarray(requests.transpose(0, 2, 1))
            )
            for rep in range(r):
                assert np.array_equal(batch[rep], serials[rep].schedule(requests[rep]))


class TestRegistry:
    def test_covered_set(self):
        assert set(COVERED) == {"lcf_central", "lcf_central_rr", "islip"}
        for name in COVERED:
            assert has_columnar_kernel(name)
        assert not has_columnar_kernel("pim")
        assert not has_columnar_kernel("wfront")

    def test_uncovered_name_raises(self):
        with pytest.raises(KeyError, match="no columnar kernel"):
            make_columnar_kernel("pim", 4, 2)

    def test_islip_iterations_forwarded(self):
        kernel = make_columnar_kernel("islip", 4, 2, iterations=1)
        assert kernel.iterations == 1
        serials = [make_scheduler("islip", 4, iterations=1) for _ in range(2)]
        rng = np.random.default_rng(3)
        for _ in range(4):
            requests = rng.random((2, 4, 4)) < 0.7
            batch = kernel.schedule_batch(
                np.ascontiguousarray(requests.transpose(0, 2, 1))
            )
            for rep in range(2):
                assert np.array_equal(batch[rep], serials[rep].schedule(requests[rep]))

    def test_lcf_key_space_bound(self, monkeypatch):
        # The int32 keys hold while n * (n + 1) < _SENTINEL, and every
        # class of key keeps its side of the sentinel at that width.
        m = ColumnarLCFCentral.max_ports
        assert m * (m + 1) < kernels_mod._SENTINEL <= (m + 1) * (m + 2)
        assert kernels_mod._NO_REQUEST + kernels_mod._DIAGONAL > kernels_mod._SENTINEL
        assert (
            kernels_mod._MATCHED - m * m + kernels_mod._DIAGONAL
            > kernels_mod._SENTINEL
        )
        assert kernels_mod._NO_REQUEST + kernels_mod._MATCHED + m < 2**31
        for name in ("lcf_central", "lcf_central_rr"):
            assert has_columnar_kernel(name, m)
            assert not has_columnar_kernel(name, m + 1)
        assert has_columnar_kernel("islip", 10 * m)
        # The check comes before any buffer: shown on a lowered bound,
        # so nothing that wide is ever allocated here.
        monkeypatch.setattr(ColumnarLCFCentral, "max_ports", 4)
        assert not has_columnar_kernel("lcf_central_rr", 5)
        with pytest.raises(ValueError, match="at most 4 ports"):
            make_columnar_kernel("lcf_central_rr", 5, 1)
        make_columnar_kernel("lcf_central_rr", 4, 1)

    @pytest.mark.parametrize("name", COVERED)
    def test_buffer_bytes_count_the_kernels_arrays(self, name):
        # What a kernel reports before it is built is what it then
        # holds in arrays that grow with R * n**2.
        n, r = 12, 5
        kernel = make_columnar_kernel(name, n, r)
        held = sum(
            value.nbytes
            for value in vars(kernel).values()
            if isinstance(value, np.ndarray) and value.size >= r * n * n
        )
        assert columnar_kernel_bytes(name, n, r) == held

    def test_chain_table_is_shared_and_frozen(self):
        table = chain_table(5)
        assert table is chain_table(5)
        assert not table.flags.writeable
        assert table[2, 2] == 0 and table[2, 3] == 1 and table[2, 1] == 4


class TestBitpack:
    @given(
        st.integers(1, 70).flatmap(
            lambda n: arrays(np.bool_, (2, n, n), elements=st.booleans())
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_pack_unpack_roundtrip(self, requests):
        n = requests.shape[1]
        packed = pack_requests(requests)
        assert packed.shape == (2, n, word_count(n))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_requests(packed, n), requests)

    def test_word_layout_matches_fastpath_bit_convention(self):
        # bit j of input i lives at words[j >> 6], bit (j & 63) — the
        # repro.fastpath.bitops LSB-first convention.
        n = 66
        requests = np.zeros((1, n, n), dtype=bool)
        requests[0, 2, 65] = True
        packed = pack_requests(requests)
        assert packed[0, 2, 1] == np.uint64(1) << np.uint64(1)
        assert packed[0, 2, 0] == 0
