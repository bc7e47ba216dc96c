"""Fastpath scheduler registry.

Mirrors :mod:`repro.baselines.registry` for the names that have a
bitset kernel; :func:`make_fast_scheduler` is the bitset counterpart of
:func:`~repro.baselines.registry.make_scheduler` and falls back to the
reference implementation for every other name. The simulators build
their schedulers through
:func:`~repro.sim.simulator.make_crossbar_scheduler`, which takes the
bitset kernel whenever :func:`uses_fast_kernel` says so.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.baselines.registry import make_scheduler
from repro.core.base import Scheduler
from repro.fastpath.islip import FastISLIP
from repro.fastpath.lcf import FastLCFCentral, FastLCFCentralRR
from repro.fastpath.lcf_dist import FastLCFDistributed, FastLCFDistributedRR
from repro.fastpath.pim import FastPIM
from repro.fastpath.wavefront import FastWrappedWaveFront

_FAST_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "lcf_central": lambda n, **kw: FastLCFCentral(n),
    "lcf_central_rr": lambda n, **kw: FastLCFCentralRR(n),
    "lcf_dist": lambda n, iterations=4, **kw: FastLCFDistributed(n, iterations),
    "lcf_dist_rr": lambda n, iterations=4, **kw: FastLCFDistributedRR(
        n, iterations
    ),
    "islip": lambda n, iterations=4, **kw: FastISLIP(n, iterations),
    "pim": lambda n, iterations=4, seed=0, **kw: FastPIM(n, iterations, seed),
    "wfront": lambda n, **kw: FastWrappedWaveFront(n),
}

#: Registry names with a bitset kernel (everything else falls back).
FAST_SCHEDULER_NAMES = frozenset(_FAST_FACTORIES)


def fast_schedulers() -> tuple[str, ...]:
    """Sorted registry names that resolve to a bitset kernel."""
    return tuple(sorted(_FAST_FACTORIES))


def has_fast_kernel(name: str) -> bool:
    """Whether ``make_fast_scheduler(name, ...)`` returns a bitset kernel."""
    return name in _FAST_FACTORIES


_reference_only = False


@contextmanager
def _reference_kernels() -> Iterator[None]:
    """Build reference schedulers instead of bitset kernels inside the
    block — the seam the fast-vs-reference equivalence tests and speed
    benchmarks use. Not part of the public API: the two are
    bit-identical, so nothing else needs to choose."""
    global _reference_only
    previous, _reference_only = _reference_only, True
    try:
        yield
    finally:
        _reference_only = previous


def uses_fast_kernel(name: str) -> bool:
    """Whether the simulators build ``name`` as its bitset kernel: every
    name that has one, outside :func:`_reference_kernels`."""
    return not _reference_only and name in _FAST_FACTORIES


def make_fast_scheduler(name: str, n: int, **kwargs) -> Scheduler:
    """Construct the fast twin of a registry scheduler.

    Accepts the same names and keywords as
    :func:`~repro.baselines.registry.make_scheduler`; names without a
    fast kernel return the reference implementation, so the fast layer
    never changes which schedulers are available — only how fast the
    covered ones run. Either way the result is bit-identical to the
    reference (property-tested in ``tests/fastpath/``).
    """
    factory = _FAST_FACTORIES.get(name)
    if factory is None:
        return make_scheduler(name, n, **kwargs)
    return factory(n, **kwargs)
