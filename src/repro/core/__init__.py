"""The paper's primary contribution: the Least Choice First schedulers.

* :class:`~repro.core.lcf_central.LCFCentral` — pure central LCF
  (``lcf_central`` in Figure 12): outputs scheduled sequentially, the
  input with the fewest outstanding requests wins, ties broken by a
  rotating priority chain.
* :class:`~repro.core.lcf_central.LCFCentralRR` — Figure 2 pseudocode
  (``lcf_central_rr``): adds the rotating round-robin diagonal whose
  positions win unconditionally, giving the hard ``b/n^2`` bandwidth
  lower bound of Section 3.
* :class:`~repro.core.lcf_dist.LCFDistributed` /
  :class:`~repro.core.lcf_dist.LCFDistributedRR` — the Section 5
  iterative request/grant/accept schedulers (``lcf_dist`` /
  ``lcf_dist_rr``), over a perfect or (with an ``injector``) lossy
  control channel.
* :mod:`repro.core.precalc` — the Section 4.3 precalculated-schedule
  stage for multicast and real-time traffic.
* :mod:`repro.core.rr_variants` — the Section 3 family of round-robin
  coverage variants spanning the fairness range ``0 .. b/n``.
"""

from repro.core.base import DecisionTally, IterativeScheduler, Scheduler
from repro.core.lcf_central import LCFCentral, LCFCentralRR
from repro.core.lcf_dist import LCFDistributed, LCFDistributedRR
from repro.core.multicast import MulticastCell, MulticastQueue, MulticastScheduler
from repro.core.precalc import PrecalcResult, PrecalcScheduler, check_precalc_integrity
from repro.core.rr_variants import RRCoverage, LCFCentralVariant

__all__ = [
    "Scheduler",
    "IterativeScheduler",
    "DecisionTally",
    "LCFCentral",
    "LCFCentralRR",
    "LCFDistributed",
    "LCFDistributedRR",
    "MulticastCell",
    "MulticastQueue",
    "MulticastScheduler",
    "PrecalcScheduler",
    "PrecalcResult",
    "check_precalc_integrity",
    "RRCoverage",
    "LCFCentralVariant",
]
