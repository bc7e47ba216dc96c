"""Fault injection and resilience analysis (``repro.faults``).

The paper assumes a perfect control plane; this subsystem quantifies
what happens without one. It has three layers:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` schedules
  (port outages, link outages, message loss, CRC bursts);
* :mod:`repro.faults.injector` — the pure, seeded
  :class:`FaultInjector` that turns a plan into per-slot decisions;
* :mod:`repro.faults.harness` — degradation-curve sweeps along
  message-loss and port-availability axes via the parallel sweep
  engine (CLI: ``lcf-faults``).

The injector's consumers are the crossbar
(:class:`~repro.sim.crossbar.InputQueuedSwitch`: port and link
outages, and request loss on the way into every scheduler but one) and
the Section 5 protocol (:data:`LOSSY_PROTOCOL_NAMES`), which holds the
injector and loses each request, grant and accept where it is sent.
"""

from repro.baselines.registry import LOSSY_PROTOCOL_NAMES
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
    "LOSSY_PROTOCOL_NAMES",
    "REQUEST",
    "GRANT",
    "ACCEPT",
    "hash_u64",
    "hash01",
]
