"""Fastpath registry: coverage, fallback, and constructor keywords."""

import pytest

from repro.baselines.registry import available_schedulers, make_scheduler
from repro.fastpath.islip import FastISLIP
from repro.fastpath.lcf import FastLCFCentral, FastLCFCentralRR
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.fastpath.pim import FastPIM
from repro.fastpath.registry import (
    FAST_SCHEDULER_NAMES,
    fast_schedulers,
    has_fast_kernel,
    make_fast_scheduler,
)
from repro.fastpath.wavefront import FastWrappedWaveFront


def test_fast_names_are_a_subset_of_the_registry():
    assert FAST_SCHEDULER_NAMES <= set(available_schedulers())


def test_fast_schedulers_lists_the_kernels_sorted():
    assert fast_schedulers() == tuple(sorted(FAST_SCHEDULER_NAMES))
    assert set(fast_schedulers()) == {
        "islip",
        "lcf_central",
        "lcf_central_rr",
        "lcf_dist",
        "lcf_dist_rr",
        "pim",
        "wfront",
    }


@pytest.mark.parametrize(
    ("name", "cls"),
    [
        ("lcf_central", FastLCFCentral),
        ("lcf_central_rr", FastLCFCentralRR),
        ("lcf_dist", FastLCFDistributed),
        ("lcf_dist_rr", FastLCFDistributedRR),
        ("islip", FastISLIP),
        ("pim", FastPIM),
        ("wfront", FastWrappedWaveFront),
    ],
)
def test_covered_names_resolve_to_bitset_kernels(name, cls):
    assert has_fast_kernel(name)
    scheduler = make_fast_scheduler(name, 8)
    assert isinstance(scheduler, cls)
    assert scheduler.n == 8
    # The fast twin keeps the registry name so results stay comparable.
    assert scheduler.name == make_scheduler(name, 8).name


@pytest.mark.parametrize("name", ["lqf", "greedy", "ocf"])
def test_uncovered_names_fall_back_to_the_reference(name):
    assert not has_fast_kernel(name)
    fast = make_fast_scheduler(name, 4)
    assert type(fast) is type(make_scheduler(name, 4))


def test_unknown_names_raise_like_the_reference_registry():
    with pytest.raises(KeyError):
        make_fast_scheduler("no_such_scheduler", 4)


def test_constructor_keywords_are_honoured():
    islip = make_fast_scheduler("islip", 8, iterations=2)
    assert islip.iterations == 2
    pim = make_fast_scheduler("pim", 8, iterations=3, seed=7)
    assert pim.iterations == 3
    assert pim.seed == 7
    dist = make_fast_scheduler("lcf_dist", 8, iterations=2)
    assert dist.iterations == 2
    dist_rr = make_fast_scheduler("lcf_dist_rr", 8, iterations=6)
    assert dist_rr.iterations == 6
