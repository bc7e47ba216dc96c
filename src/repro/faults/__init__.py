"""Fault injection and resilience analysis (``repro.faults``).

The paper assumes a perfect control plane; this subsystem quantifies
what happens without one. It has four layers:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` schedules
  (port outages, link outages, message loss, CRC bursts);
* :mod:`repro.faults.injector` — the pure, seeded
  :class:`FaultInjector` that turns a plan into per-slot decisions;
* :mod:`repro.faults.channel` — the degraded-mode scheduler factory:
  the distributed LCF protocol with the injector attached, and a
  generic request-loss filter for every other registry scheduler;
* :mod:`repro.faults.harness` — degradation-curve sweeps along
  message-loss and port-availability axes via the parallel sweep
  engine (CLI: ``lcf-faults``).
"""

from repro.faults.channel import (
    LOSSY_PROTOCOL_NAMES,
    RequestLossFilter,
    make_lossy_scheduler,
)
from repro.faults.injector import ACCEPT, GRANT, REQUEST, FaultInjector, hash01, hash_u64
from repro.faults.plan import (
    CrcBurst,
    FaultPlan,
    LinkOutage,
    PortDownInterval,
    PortDutyCycle,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "PortDownInterval",
    "PortDutyCycle",
    "LinkOutage",
    "CrcBurst",
    "RequestLossFilter",
    "make_lossy_scheduler",
    "LOSSY_PROTOCOL_NAMES",
    "REQUEST",
    "GRANT",
    "ACCEPT",
    "hash_u64",
    "hash01",
]
