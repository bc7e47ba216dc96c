"""Threshold-based admission control: shed load before queues overflow.

The sfctss exemplar's ``admission_control_threshold_low/high`` knob
pair, applied to the Figure 11 switch: when the *total* number of
packets buffered anywhere in the switch (packet queues plus VOQs)
crosses ``high``, the controller starts shedding — every arrival is
discarded at the ingress, before it can enter a packet queue — and it
keeps shedding until occupancy drains back to ``low``. The hysteresis
band prevents the on/off flapping a single threshold would produce at
a sustained overload.

Why shed at all when the PQs already drop on overflow? Because a PQ
drop happens *after* 1000 packets of queueing delay have accumulated;
Cogill–Lall's maximal-matching analysis bounds queue lengths only in
the stable regime, and the paper's LCF latency results are measured
there. Admission control keeps a soak run inside that regime instead
of grinding through a saturated buffer.

Accounting: shed packets count toward ``offered`` (they were
generated) and toward :attr:`AdmissionController.shed_packets` /
the ``shed_packets`` counter; they are *not* PQ drops, emit
``admission_drop`` trace events rather than ``arrival``/``drop``, and
the ``admission_state`` gauge tracks the shedding flag (1 = shedding).

The controller is deliberately tiny, deterministic state (two bools
and two counters), so it checkpoints through the generic
:mod:`repro.checkpoint.state` capture like every other component.
"""

from __future__ import annotations

from repro.obs import events as ev

__all__ = ["AdmissionController", "make_admission"]


class AdmissionController:
    """Hysteresis load shedder over total switch occupancy.

    ``low``/``high`` are occupancy watermarks in packets (PQ + VOQ,
    switch-wide). Shedding turns on when occupancy reaches ``high``
    and off once it has drained to ``low`` or below.
    """

    #: Metric handles a registry brings (``None`` without one); a
    #: checkpoint restore keeps the rebuilt controller's.
    _restore_keeps = ("_m_shed", "_m_state")

    def __init__(self, low: int, high: int):
        if low < 0:
            raise ValueError(f"low watermark must be >= 0, got {low}")
        if high < low:
            raise ValueError(
                f"need low <= high, got low={low} high={high}"
            )
        self.low = low
        self.high = high
        #: True while arrivals are being shed.
        self.shedding = False
        #: Arrivals discarded by admission control since construction.
        self.shed_packets = 0
        #: Shedding on/off flips (for hysteresis tests and reports).
        self.transitions = 0
        self.tracer = None
        self._m_shed = None
        self._m_state = None

    def bind(self, tracer=None, metrics=None) -> None:
        """Attach to a switch's resolved instrumentation."""
        self.tracer = tracer
        if metrics is not None:
            self._m_shed = metrics.counter("shed_packets")
            self._m_state = metrics.gauge("admission_state")
            self._m_state.set(int(self.shedding))

    def update(self, occupancy: int) -> None:
        """Re-evaluate the shedding flag against current occupancy.

        The switch calls this once per slot, before generation, so a
        slot's arrivals all see one consistent admission decision.
        """
        if self.shedding:
            if occupancy <= self.low:
                self.shedding = False
                self.transitions += 1
                if self._m_state is not None:
                    self._m_state.set(0)
        elif occupancy >= self.high:
            self.shedding = True
            self.transitions += 1
            if self._m_state is not None:
                self._m_state.set(1)

    def shed(self, slot: int, input: int, output: int) -> None:
        """Record one shed arrival (caller checked :attr:`shedding`)."""
        self.shed_packets += 1
        if self._m_shed is not None:
            self._m_shed.inc()
        if self.tracer is not None:
            self.tracer.emit(ev.admission_drop(slot, input, output))


def make_admission(spec) -> AdmissionController | None:
    """Resolve an admission spec to a controller (or ``None``).

    Accepts ``None`` (no admission control), an existing
    :class:`AdmissionController`, a ``(low, high)`` pair, or a dict
    with ``low``/``high`` keys — the wire form carried by checkpoints
    and CLI flags.
    """
    if spec is None:
        return None
    if isinstance(spec, AdmissionController):
        return spec
    if isinstance(spec, dict):
        return AdmissionController(int(spec["low"]), int(spec["high"]))
    low, high = spec
    return AdmissionController(int(low), int(high))
