"""Name-based scheduler registry.

Maps the scheduler names used throughout the paper's evaluation
(Figure 12 legend) to factories, so the simulator, the sweep harness,
and the CLI can be driven by strings. ``fifo`` and ``outbuf`` are listed
for completeness but are *switch architectures* as much as schedulers:
the simulator dispatches them to the dedicated switch models.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.baselines.fifo import FIFOScheduler
from repro.baselines.islip import ISLIP
from repro.baselines.maximal_greedy import GreedyMaximal
from repro.baselines.pim import PIM
from repro.baselines.random_sched import RandomMaximal
from repro.baselines.wavefront import WrappedWaveFront
from repro.baselines.weighted import LQF, OCF
from repro.core.base import Scheduler
from repro.core.lcf_central import LCFCentral, LCFCentralRR
from repro.core.lcf_dist import LCFDistributed, LCFDistributedRR

#: The iterative schedulers honour the ``iterations`` keyword.
ITERATIVE_NAMES = frozenset({"pim", "lcf_dist", "lcf_dist_rr", "islip"})

#: Names that require a dedicated switch model rather than a VOQ crossbar.
SPECIAL_SWITCH_NAMES = frozenset({"fifo", "outbuf"})

#: The Section 5 protocol: under message faults it plays the control
#: channel itself (its ``injector``), per request, grant and accept.
LOSSY_PROTOCOL_NAMES = frozenset({"lcf_dist", "lcf_dist_rr"})

_FACTORIES: dict[str, Callable[..., Scheduler]] = {
    "lcf_central": lambda n, **kw: LCFCentral(n),
    "lcf_central_rr": lambda n, **kw: LCFCentralRR(n),
    "lcf_dist": lambda n, iterations=4, **kw: LCFDistributed(n, iterations),
    "lcf_dist_rr": lambda n, iterations=4, **kw: LCFDistributedRR(n, iterations),
    "pim": lambda n, iterations=4, seed=0, **kw: PIM(n, iterations, seed),
    "islip": lambda n, iterations=4, **kw: ISLIP(n, iterations),
    "wfront": lambda n, **kw: WrappedWaveFront(n),
    "fifo": lambda n, **kw: FIFOScheduler(n),
    "greedy": lambda n, **kw: GreedyMaximal(n),
    "lqf": lambda n, **kw: LQF(n),
    "ocf": lambda n, **kw: OCF(n),
    "random": lambda n, seed=0, **kw: RandomMaximal(n, seed),
}

#: Figure 12 legend order, used by the reproduction harness.
PAPER_SCHEDULERS = (
    "lcf_central",
    "lcf_central_rr",
    "lcf_dist_rr",
    "lcf_dist",
    "pim",
    "islip",
    "wfront",
    "fifo",
    "outbuf",
)


def available_schedulers() -> tuple[str, ...]:
    """All registered crossbar scheduler names (excluding ``outbuf``)."""
    return tuple(sorted(_FACTORIES))


def make_scheduler(name: str, n: int, **kwargs) -> Scheduler:
    """Construct a scheduler by registry name.

    ``iterations`` and ``seed`` keywords are forwarded where meaningful
    and ignored otherwise, so sweep code can pass one kwargs dict for
    every scheduler.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    return factory(n, **kwargs)
