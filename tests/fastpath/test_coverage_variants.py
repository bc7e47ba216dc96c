"""The central LCF kernel equals its reference for every RR coverage.

The registry's two central kernels run ``RRCoverage.NONE`` and
``DIAGONAL``; ``SINGLE`` and ``DIAGONAL_FIRST`` reach the kernel only
through :class:`~repro.fastpath.lcf.FastLCFCentralVariant`. Each case
drives a kernel and its reference twin over one seeded sequence of
request matrices at densities 0.05–1.0, from seeded round-robin
offsets, and compares the schedule, the ``(I, J)`` offsets after every
call and either the decision tally (untraced) or every
:class:`~repro.core.lcf_central.StepTrace` field (traced). The widths
straddle the kernel's body choice: the per-bit scan up to 32 ports, the
NRQ-bucket walk above it when untraced, the scan at every width when
traced.
"""

import numpy as np
import pytest

from repro.core.base import DecisionTally
from repro.core.lcf_central import LCFCentralVariant, RRCoverage
from repro.fastpath.lcf import FastLCFCentralVariant

WIDTHS = (1, 2, 3, 5, 16, 31, 32, 33, 80)
DENSITIES = (0.05, 0.2, 0.5, 0.8, 1.0)
CALLS_PER_DENSITY = 4


def matrix_sequence(n: int, seed: int) -> list[np.ndarray]:
    """Request matrices cycling through every density, seeded."""
    rng = np.random.default_rng(seed)
    return [
        rng.random((n, n)) < density
        for _ in range(CALLS_PER_DENSITY)
        for density in DENSITIES
    ]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("coverage", list(RRCoverage), ids=lambda c: c.value)
def test_kernel_equals_reference(coverage, n, traced):
    seed = 1000 * n + list(RRCoverage).index(coverage)
    reference = LCFCentralVariant(n, coverage)
    fast = FastLCFCentralVariant(n, coverage)
    start = np.random.default_rng(seed).integers(0, n, size=2).tolist()
    for scheduler in (reference, fast):
        scheduler.set_rr_offsets(*start)
        scheduler.record_trace = traced
        scheduler.decision_tally = DecisionTally(n)
    for matrix in matrix_sequence(n, seed):
        expected = reference.schedule(matrix)
        assert fast.schedule(matrix).tolist() == expected.tolist()
        assert fast.rr_offsets == reference.rr_offsets
        assert fast.decision_tally.drain() == reference.decision_tally.drain()
        if not traced:
            continue
        assert len(fast.last_trace) == len(reference.last_trace)
        for fast_step, ref_step in zip(fast.last_trace, reference.last_trace):
            assert fast_step.output == ref_step.output
            assert fast_step.rr_row == ref_step.rr_row
            assert fast_step.granted == ref_step.granted
            assert fast_step.rr_won == ref_step.rr_won
            assert fast_step.nrq_before.tolist() == ref_step.nrq_before.tolist()
