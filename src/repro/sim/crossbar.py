"""The VOQ input-queued crossbar switch (Figure 11 / Figure 1).

Per-slot event order:

1. **Generation** — the traffic pattern's arrivals enter the per-input
   packet queues (PQ); a full PQ drops the packet.
2. **Injection** — each input link carries at most one packet per slot
   from the PQ head into its VOQ; a full VOQ blocks the PQ head (the
   PQ is FIFO, so this is deliberate head-of-line blocking *upstream*
   of the VOQs, exactly the Figure 11 structure).
3. **Scheduling** — the scheduler computes a matching over the
   occupied-VOQ request matrix.
4. **Forwarding** — matched VOQ heads traverse the fabric and depart;
   with no output buffering, departure is in the same slot.

Latency of a packet = departure slot − generation slot + 1.

One slot body: :meth:`InputQueuedSwitch.run_slots` runs these stages
for a block of slots on the queues' deques and the request bitmasks,
and :meth:`InputQueuedSwitch.step` is that body run for one slot. Every
optional stage — fault injector, admission control, adapter, output
gate, forward sink, tracer, metrics — is bound once per block; absent,
it costs one local test per slot or per packet, and results are
bit-identical to an uninstrumented run (property-tested). A scheduler
whose class defines ``schedule_masks`` schedules straight off the
masks; reference schedulers get the unpacked request matrix and
weight-based ones (LQF/OCF) their weights.

Observability: pass a :class:`repro.obs.Tracer` and/or a
:class:`repro.obs.MetricsRegistry` to record per-slot events (arrival,
enqueue, request vector, scheduler decision steps, RR override,
forward, drop) and decision metrics (matching size, choice-count and
tie-break-depth distributions). A tracer receives every event in the
stage order above. Metrics are tallied in local ints and count lists
and added to the registry when :meth:`~InputQueuedSwitch.run_slots`
returns — once per block of slots (``_SLOT_BLOCK`` = 64), so a
scrape taken mid-block lags the simulation by at most that many slots.
The choice-count, tie-break-depth and RR-override counts come from the
:class:`~repro.core.base.DecisionTally` the switch attaches to an LCF
scheduler, which its kernels add to where they grant; the per-step
decision records (``record_trace``) are kept only for a tracer. The
block's delays and matchings reach the latency histogram and the live
estimators in one call each when the block ends: the ``rate_*`` gauges
are per-pair EWMAs (:class:`~repro.obs.estimators.RateEstimator`), and
the ``delay_p*`` gauges exact percentiles of every forwarded delay
(:class:`~repro.obs.estimators.DelayHistogram`).

Fault stances: with an ``injector`` alone the switch is *informed* —
requests over faulted crosspoints are masked out before the scheduler
sees them (an oracle tells it the fault state). Attaching an
``adapter`` (:mod:`repro.adapt`) makes the switch *fault-blind*: the
scheduler sees whatever the adapter returns, never the injector mask;
the fabric gate silently drops grants over faulted crosspoints
(counted in ``masked_grants``), and the adapter observes which
proposed grants survived — the feedback loop reactive scheduling
learns from.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import DecisionTally, Scheduler
from repro.core.lcf_central import StepTrace
from repro.core.lcf_dist import IterationTrace
from repro.fastpath.bitops import pack_cols, pack_rows, unpack_rows
from repro.faults.injector import FaultInjector
from repro.obs import events as ev
from repro.obs.estimators import DelayHistogram, RateEstimator
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, effective_tracer
from repro.sim.config import SimConfig
from repro.sim.metrics import ServiceMatrix
from repro.sim.queues import PacketQueue, VOQSet
from repro.traffic.base import NO_ARRIVAL
from repro.types import NO_GRANT


class InputQueuedSwitch:
    """VOQ crossbar switch driven by any :class:`Scheduler`."""

    #: Derived from the switch's own wiring, so a checkpoint restore
    #: keeps the rebuilt switch's values (``repro.checkpoint.state``):
    #: the observing flag and live estimators follow the resumer's
    #: tracer and registry. ``_fast_slot`` is retired (there is one slot
    #: body); files written before carry it, and a restore skips it.
    _restore_keeps = ("_fast_slot", "_observing", "rate_estimator", "delay_histogram")

    def __init__(
        self,
        config: SimConfig,
        scheduler: Scheduler,
        collect_service: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
        adapter=None,
        output_gate=None,
        forward_sink=None,
        admission=None,
    ):
        if scheduler.n != config.n_ports:
            raise ValueError(
                f"scheduler is for n={scheduler.n}, config has {config.n_ports} ports"
            )
        self.config = config
        self.scheduler = scheduler
        n = config.n_ports
        self.pqs = [PacketQueue(config.pq_capacity) for _ in range(n)]
        self.voqs = VOQSet(n, config.voq_capacity)

        self.latency = DelayHistogram()
        self.offered = 0  # packets generated during measurement
        self.forwarded = 0  # packets departed during measurement
        self.measuring = False
        self.service = ServiceMatrix(n) if collect_service else None

        # A disabled tracer resolves to None here, so the hot loop's only
        # disabled-path cost is the `is not None` guards below.
        self.tracer = effective_tracer(tracer)
        self.metrics = metrics
        self._observing = self.tracer is not None or metrics is not None
        if self.tracer is not None and hasattr(scheduler, "record_trace"):
            # The decision events come from the schedulers' built-in
            # recorders (StepTrace / IterationTrace).
            scheduler.record_trace = True
        #: The LCF kernels' decision counts behind the choice-count,
        #: tie-break-depth and RR-override metrics: wiring (never
        #: checkpointed), drained once per block.
        self.decision_tally = None
        if metrics is not None:
            if hasattr(scheduler, "decision_tally"):
                self.decision_tally = scheduler.decision_tally = DecisionTally(n)
            self._m_matching = metrics.histogram("matching_size", range(n + 1))
            self._m_choices = metrics.histogram("choice_count", range(n + 1))
            self._m_tie_depth = metrics.histogram("tie_break_depth", range(n))
            self._m_rr = metrics.counter("rr_overrides")
            self._m_grants = metrics.counter("grants")
            self._m_slots = metrics.counter("slots")
            self._m_forwarded = metrics.counter("forwarded")
            self._m_dropped = metrics.counter("dropped")
            self._m_arrivals = metrics.counter("arrivals")
            # Live estimators, fed once per block; everything derived
            # from them (rate gauges, delay percentiles, queue depths)
            # is refreshed lazily by the collector below, so only
            # scrapes/snapshots pay for it.
            self.rate_estimator = RateEstimator(n)
            self.delay_histogram = DelayHistogram()
            self._live_slot = 0
            metrics.add_collector("switch-live", self._collect_live)
        else:
            self.rate_estimator = None
            self.delay_histogram = None
        #: (i, j) when the distributed RR overlay will pre-match this
        #: slot (kept for the tracer's ``rr_override`` event).
        self._pending_rr: tuple[int, int] | None = None

        # A plan with no topology faults resolves to no injector here —
        # the switch only consumes port/link outages (message faults are
        # the scheduler's, see repro.faults.channel), so a null or
        # message-only plan is bit-identical to running uninstrumented.
        if injector is not None and not injector.plan.has_topology_faults:
            injector = None
        self.injector = injector
        #: Backpressure hook (the multi-stage fabric's credit gate):
        #: ``output_gate(slot) -> bool[n]`` marks outputs whose
        #: downstream boundary queue cannot accept a packet this slot.
        #: Blocked outputs are masked out of the request matrix the
        #: scheduler sees, and any grant that lands on one anyway is
        #: dropped *before* the adapter observes outcomes — backpressure
        #: must never teach the health estimator that a link is dead.
        self.output_gate = output_gate
        #: Per-forward hook: ``forward_sink(slot, input, output, payload)``
        #: receives each departing packet's queued payload (normally the
        #: generation timestamp; the fabric stores packet tags instead)
        #: and returns the latency to record for it. With a sink attached
        #: the switch no longer interprets the payload itself.
        self.forward_sink = forward_sink
        self.blocked_grants = 0
        #: Fault-reaction layer (repro.adapt). When attached, the switch
        #: runs fault-blind: see the module docstring.
        self.adapter = adapter
        if adapter is not None:
            adapter.bind(n, tracer=self.tracer, metrics=metrics)
        #: Ingress load shedder (:mod:`repro.sim.admission`): when
        #: attached, arrivals are discarded while total occupancy sits
        #: above its hysteresis band — before they can enter a PQ.
        self.admission = admission
        if admission is not None:
            admission.bind(tracer=self.tracer, metrics=metrics)
        #: Fault accounting (kept even without a MetricsRegistry so the
        #: resilience harness can read degradation off the switch).
        self.fault_events = 0
        self.recovery_events = 0
        self.degraded_slots = 0
        self.masked_grants = 0
        if injector is not None:
            self._down_in_prev = np.zeros(n, dtype=bool)
            self._down_out_prev = np.zeros(n, dtype=bool)
            # Input-side recovery clock: backlog level when the port
            # failed, and the port-up slot the drain is measured from.
            self._backlog_at_fault = np.zeros(n, dtype=np.int64)
            self._recovering_since = np.full(n, -1, dtype=np.int64)
            if metrics is not None:
                self._m_faults = metrics.counter("fault_events")
                self._m_recoveries = metrics.counter("recovery_events")
                self._m_degraded = metrics.counter("degraded_slots")
                self._m_masked = metrics.counter("masked_grants")
                self._m_recovery_time = metrics.histogram(
                    "recovery_time", (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
                )

    def reset_run(self, scheduler: Scheduler | None = None) -> None:
        """Re-arm the switch for a fresh run without rebuilding it.

        Empties every queue, zeroes the statistics and drop counters,
        and (optionally) swaps in a new scheduler — after this the
        switch is indistinguishable from a freshly constructed one with
        the same configuration and collection flags. The multi-replicate
        runners use this to amortise the ``n^2`` queue-structure build
        across the replicates of a sweep cell.

        Only the plain statistics-collecting switch supports reuse:
        instrumented switches (tracer/metrics/injector/adapter/gate/
        sink/admission) hold run-scoped external state this method
        cannot safely rewind, so it refuses rather than silently carry
        state over.
        """
        if (
            self._observing
            or self.injector is not None
            or self.adapter is not None
            or self.output_gate is not None
            or self.forward_sink is not None
            or self.admission is not None
        ):
            raise ValueError("reset_run requires an uninstrumented switch")
        if scheduler is not None:
            if scheduler.n != self.config.n_ports:
                raise ValueError(
                    f"scheduler is for n={scheduler.n}, "
                    f"config has {self.config.n_ports} ports"
                )
            self.scheduler = scheduler
        else:
            self.scheduler.reset()
        for pq in self.pqs:
            pq.clear()
        self.voqs.clear()
        self.latency = DelayHistogram()
        self.offered = 0
        self.forwarded = 0
        self.measuring = False
        if self.service is not None:
            self.service = ServiceMatrix(self.n)

    @property
    def n(self) -> int:
        return self.config.n_ports

    def total_queued(self) -> int:
        """Packets currently buffered anywhere in the switch."""
        return sum(len(pq) for pq in self.pqs) + self.voqs.total_queued()

    @property
    def dropped(self) -> int:
        """Packets dropped at full PQs since construction."""
        return sum(pq.dropped for pq in self.pqs)

    def step(self, slot: int, arrivals: np.ndarray) -> np.ndarray:
        """Advance one time slot; returns the schedule that was applied."""
        return np.array(self.run_slots(slot, (arrivals,)), dtype=np.int64)

    def run_slots(self, first_slot: int, arrivals_block) -> list[int]:
        """Advance one consecutive block of slots; returns the last
        slot's grant list.

        The Figure 11 stages of every slot, worked directly on the
        queues' deques and the request bitmasks (``VOQSet.row_masks`` /
        ``col_masks``, one Python int per port at any width): no queue
        method is called. Generation and injection run as one pass per
        input: input ``i``'s two stages touch only PQ ``i`` and VOQ row
        ``i``, so fusing them changes no result. An arrival at an empty
        PQ whose VOQ has room goes straight into the VOQ, which is what
        push-then-inject would do.

        Every optional stage is bound once per block and tested where
        it acts: the injector's down inputs, request mask and grant
        gate; admission (a shedding slot discards its arrivals before
        the pass); the adapter; the output gate; the forward sink; the
        tracer (a slot's ``enqueue`` events follow its arrival events,
        as separate stages would emit them); and metrics, tallied
        locally and added to the registry when the block ends. The
        block's delays are kept in one list that feeds the latency and
        live delay histograms, and its matchings feed the rate
        estimator, once per block. A hook
        that thins requests makes the scheduler see masked copies of
        the masks. A scheduler whose class defines ``schedule_masks``
        runs on the masks; the others get the unpacked request matrix
        (``schedule``) or their weights (``schedule_weighted``). The
        check is on the class because wrappers such as
        :class:`~repro.faults.channel.RequestLossFilter` forward unknown
        attributes to their inner scheduler, and a forwarded
        ``schedule_masks`` would skip the wrapper's own filtering.

        ``measuring`` must not change mid-block — the simulation driver
        splits its blocks at the warmup boundary.
        """
        n = self.n
        measuring = self.measuring
        pqs = self.pqs
        pq_queues = [pq._queue for pq in pqs]
        pq_capacity = self.config.pq_capacity
        voq_rows = self.voqs._queues
        voq_capacity = self.voqs.capacity
        rows, cols = self.voqs.row_masks, self.voqs.col_masks
        scheduler = self.scheduler
        weight_kind = getattr(scheduler, "weight_kind", None)
        kernel = None
        if weight_kind is None and callable(
            getattr(type(scheduler), "schedule_masks", None)
        ):
            kernel = scheduler.schedule_masks
        service = self.service if measuring else None
        injector, admission = self.injector, self.admission
        adapter, gate, sink = self.adapter, self.output_gate, self.forward_sink
        thinning = injector is not None or adapter is not None or gate is not None
        tracer = self.tracer
        traced = tracer is not None
        if traced:
            emit = tracer.emit
            enqueues: list[dict] = []
        metered = self.metrics is not None
        if metered:
            matching = [0] * (n + 1)
            matched_slots: list[int] = []
            matchings: list[list[int]] = []
            live_slot = self._live_slot
        # The distributed RR overlay pre-matches its position before the
        # kernel's iterations run, so its record never shows that grant.
        track_rr = traced and getattr(scheduler, "rr_position", None) is not None
        queued = self.total_queued() if admission is not None else 0
        arrived = dropped = shed = 0
        delays: list[int] = []  # every forward's, in order
        down = mask = None
        grants: list[int] = []

        slot = first_slot
        for arrivals in arrivals_block:
            dsts = arrivals.tolist()
            if injector is not None:
                down_in = injector.down_inputs(slot)
                self._track_faults(slot, down_in, injector.down_outputs(slot))
                if injector.degraded(slot):
                    self.degraded_slots += 1
                    if metered:
                        self._m_degraded.inc()
                # Hosts keep sending while their ingress is down: the
                # backlog builds in the PQ, and the link injects nothing.
                down = down_in.tolist() if down_in.any() else None
                mask = injector.request_mask(slot)
            if admission is not None:
                # One decision per slot, on the occupancy the slot starts
                # with; a shed arrival never reaches a PQ.
                admission.update(queued + arrived - dropped - shed - len(delays))
                if admission.shedding:
                    for i, dst in enumerate(dsts):
                        if dst != NO_ARRIVAL:
                            arrived += 1
                            shed += 1
                            admission.shed(slot, i, dst)
                    dsts = [NO_ARRIVAL] * n
            if traced:
                # Whether an arrival drops depends only on the length its
                # PQ starts the slot with, so the events go out first.
                for i, dst in enumerate(dsts):
                    if dst != NO_ARRIVAL:
                        emit(ev.arrival(slot, i, dst))
                        if len(pq_queues[i]) >= pq_capacity:
                            emit(ev.drop(slot, i, dst))

            # 1 + 2. Generation into PQ i, then one packet from its head
            #    into VOQ row i (a full VOQ blocks the head).
            for i, dst in enumerate(dsts):
                pq = pq_queues[i]
                if dst != NO_ARRIVAL:
                    arrived += 1
                    if not pq and (down is None or not down[i]):
                        # The arrival is the PQ's head: it moves into
                        # its VOQ at once, or waits behind a full one.
                        voq = voq_rows[i][dst]
                        depth = len(voq)
                        if depth < voq_capacity:
                            voq.append(slot)
                            if not depth:
                                rows[i] |= 1 << dst
                                cols[dst] |= 1 << i
                            if traced:
                                enqueues.append(ev.enqueue(slot, i, dst))
                        else:
                            pq.append((dst, slot))
                        continue
                    if len(pq) >= pq_capacity:
                        pqs[i].dropped += 1
                        dropped += 1
                    else:
                        pq.append((dst, slot))
                elif not pq:
                    continue
                if down is not None and down[i]:
                    continue
                head_dst, t_generated = pq[0]
                voq = voq_rows[i][head_dst]
                depth = len(voq)
                if depth < voq_capacity:
                    pq.popleft()
                    voq.append(t_generated)
                    if not depth:
                        rows[i] |= 1 << head_dst
                        cols[head_dst] |= 1 << i
                    if traced:
                        enqueues.append(ev.enqueue(slot, i, head_dst))
            if traced:
                for event in enqueues:
                    emit(event)
                enqueues.clear()

            # 3. Scheduling. Informed stance: the injector's mask thins
            #    the requests. Blind stance: the adapter's filter does,
            #    and the mask only gates grants. A full boundary queue
            #    downstream (output gate) removes its output column.
            seen_rows, seen_cols, blocked = rows, cols, None
            if thinning:
                if mask is not None:
                    mask_rows = pack_rows(mask)
                if adapter is not None:
                    seen = adapter.filter_requests(slot, unpack_rows(rows, n))
                    seen_rows, seen_cols = pack_rows(seen), pack_cols(seen)
                elif mask is not None:
                    seen_rows = [r & m for r, m in zip(rows, mask_rows)]
                    seen_cols = [c & m for c, m in zip(cols, pack_cols(mask))]
                if gate is not None:
                    blocked = gate(slot)
                if blocked is not None:
                    blocked = blocked.tolist()
                    unblocked = sum(1 << j for j, b in enumerate(blocked) if not b)
                    seen_rows = [r & unblocked for r in seen_rows]
                    seen_cols = [0 if b else c for c, b in zip(seen_cols, blocked)]
            if traced:
                nrq = [r.bit_count() for r in seen_rows]
                emit(ev.requests(slot, nrq))
            if track_rr:
                rr_i, rr_j = scheduler.rr_position
                self._pending_rr = (
                    (rr_i, rr_j) if seen_rows[rr_i] >> rr_j & 1 else None
                )
            if kernel is not None:
                grants = kernel(seen_rows, seen_cols)
            elif weight_kind is None:
                grants = scheduler.schedule(unpack_rows(seen_rows, n)).tolist()
            else:
                weights = self._weights(slot, weight_kind)
                if seen_rows is not rows:
                    weights = np.where(unpack_rows(seen_rows, n), weights, 0)
                grants = scheduler.schedule_weighted(weights).tolist()
            if blocked is not None:
                # Credit gate: no grant crosses into a full boundary
                # queue — before ``proposed`` is taken, so the adapter
                # never observes backpressure as a failed grant.
                for i, j in enumerate(grants):
                    if j != NO_GRANT and blocked[j]:
                        grants[i] = NO_GRANT
                        self.blocked_grants += 1
            if adapter is not None:
                proposed = np.array(grants, dtype=np.int64)
            if mask is not None:
                # Fabric gate: whatever the scheduler emitted, no grant
                # crosses a faulted crosspoint. Informed, it should never
                # fire; blind, every grant it drops is a wasted slot the
                # adapter learns from.
                for i, j in enumerate(grants):
                    if j != NO_GRANT and not mask_rows[i] >> j & 1:
                        grants[i] = NO_GRANT
                        self.masked_grants += 1
                        if metered:
                            self._m_masked.inc()
            if adapter is not None:
                if mask is not None:
                    adapter.note_truth(slot, mask)
                adapter.observe(slot, proposed, np.array(grants, dtype=np.int64))
            if traced:
                self._trace_decisions(slot, grants, sum(nrq))

            # 4. Forwarding. A granted VOQ is non-empty, so its bits are
            #    set and emptying it toggles them off.
            slot_start = len(delays)
            for i, j in enumerate(grants):
                if j == NO_GRANT:
                    continue
                voq = voq_rows[i][j]
                t_generated = voq.popleft()
                if not voq:
                    rows[i] ^= 1 << j
                    cols[j] ^= 1 << i
                if sink is None:
                    delay = slot - t_generated + 1
                else:
                    delay = sink(slot, i, j, t_generated)
                delays.append(delay)
                if traced:
                    emit(ev.forward(slot, i, j, delay))
            if metered:
                size = len(delays) - slot_start
                matching[size] += 1
                if size:
                    live_slot = slot
                    matched_slots.append(slot)
                    matchings.append(grants)
            if service is not None:
                service.record(grants)
            slot += 1

        if measuring:
            self.offered += arrived
            self.forwarded += len(delays)
            self.latency.add_many(delays)
        if metered:
            self.delay_histogram.add_many(delays)
            self.rate_estimator.observe_matchings(matched_slots, matchings)
            self._flush_decisions(matching)
            self._m_arrivals.inc(arrived - shed)
            self._m_dropped.inc(dropped)
            self._m_forwarded.inc(len(delays))
            self._live_slot = live_slot
        return grants

    def _weights(self, slot: int, weight_kind: str) -> np.ndarray:
        """The state a weight-based scheduler ranks by: VOQ occupancy
        (LQF) or head-of-line age (OCF)."""
        if weight_kind == "occupancy":
            return self.voqs.occupancy
        heads = self.voqs.head_timestamps()
        return np.where(heads >= 0, slot - heads + 1, 0)

    # -- fault tracking (only reached with an injector attached) --

    def _input_backlog(self, port: int) -> int:
        """Packets queued anywhere behind one input (PQ + its VOQs)."""
        return len(self.pqs[port]) + sum(map(len, self.voqs._queues[port]))

    def _track_faults(
        self, slot: int, down_in: np.ndarray, down_out: np.ndarray
    ) -> None:
        """Emit fault/recovery events on port state transitions.

        An output side recovers the moment it comes back up. An input
        side recovers once its backlog has drained to the level it had
        when the fault hit — ``backlog_slots`` on the recovery event
        (and the ``recovery_time`` histogram) is how long that took.

        A slot where no port changes state walks no port, and one where
        no input is recovering either returns after three comparisons.
        """
        recovering = self._recovering_since
        prev_in, prev_out = self._down_in_prev, self._down_out_prev
        changed = (
            down_in.tobytes() != prev_in.tobytes()
            or down_out.tobytes() != prev_out.tobytes()
        )
        if not changed and recovering.max() < 0:
            return
        tracer, metrics = self.tracer, self.metrics
        if changed:
            ports = np.flatnonzero((down_in != prev_in) | (down_out != prev_out))
            for port in ports.tolist():
                for side, now, prev in (
                    ("input", down_in, prev_in),
                    ("output", down_out, prev_out),
                ):
                    if now[port] and not prev[port]:
                        self.fault_events += 1
                        if metrics is not None:
                            self._m_faults.inc()
                        if tracer is not None:
                            tracer.emit(ev.fault(slot, port, side))
                        if side == "input":
                            self._backlog_at_fault[port] = self._input_backlog(port)
                            self._recovering_since[port] = -1
                    elif prev[port] and not now[port]:
                        if side == "output":
                            self.recovery_events += 1
                            if metrics is not None:
                                self._m_recoveries.inc()
                                self._m_recovery_time.observe(0)
                            if tracer is not None:
                                tracer.emit(ev.recovery(slot, port, side, 0))
                        else:
                            self._recovering_since[port] = slot
            self._down_in_prev = down_in.copy()
            self._down_out_prev = down_out.copy()
        for port in np.flatnonzero(recovering >= 0):
            if self._input_backlog(port) <= self._backlog_at_fault[port]:
                backlog_slots = slot - int(self._recovering_since[port])
                self._recovering_since[port] = -1
                self.recovery_events += 1
                if metrics is not None:
                    self._m_recoveries.inc()
                    self._m_recovery_time.observe(backlog_slots)
                if tracer is not None:
                    tracer.emit(ev.recovery(slot, int(port), "input", backlog_slots))

    # -- observability (only reached with a tracer or metrics attached) --

    def _trace_decisions(
        self, slot: int, grants: list[int], request_total: int
    ) -> None:
        """Emit the decision-recorder events and the slot summary (VOQ
        occupancy per input before forwarding)."""
        tracer = self.tracer
        trace = getattr(self.scheduler, "last_trace", None)
        if trace and isinstance(trace[0], StepTrace):
            # Central LCF: one record per per-output allocation step.
            for step in trace:
                granted = step.granted
                if granted != NO_GRANT:
                    choices = int(step.nrq_before[granted])
                    tie_depth = (granted - step.rr_row) % self.n
                else:
                    choices = tie_depth = -1
                tracer.emit(
                    ev.sched_step(
                        slot, step.output, step.rr_row, granted,
                        step.rr_won, choices, tie_depth,
                    )
                )
                if step.rr_won:
                    tracer.emit(ev.rr_override(slot, granted, step.output))
        elif trace and isinstance(trace[0], IterationTrace):
            # Distributed LCF: one record per request/grant/accept round.
            for index, it in enumerate(trace):
                tracer.emit(
                    ev.iteration(
                        slot,
                        index,
                        int(it.grants.sum()),
                        len(it.accepts),
                        requests=int(it.requests.sum()),
                    )
                )
            if self._pending_rr is not None:
                tracer.emit(ev.rr_override(slot, *self._pending_rr))
        voq = [sum(map(len, row)) for row in self.voqs._queues]
        matching_size = self.n - grants.count(NO_GRANT)
        tracer.emit(ev.slot_summary(slot, matching_size, request_total, voq))

    def _flush_decisions(self, matching: list[int]) -> None:
        """Add the block's per-value counts (index = observed value) to
        the registry: the matching sizes with the slot and grant counts
        they imply, and the decision tally, drained."""
        tally = self.decision_tally
        choices, depths, overrides = (
            tally.drain() if tally is not None else ((), (), 0)
        )
        for histogram, counts in (
            (self._m_matching, matching),
            (self._m_choices, choices),
            (self._m_tie_depth, depths),
        ):
            for value, times in enumerate(counts):
                if times:
                    histogram.observe_many(value, times)
        self._m_slots.inc(sum(matching))
        self._m_grants.inc(sum(size * times for size, times in enumerate(matching)))
        self._m_rr.inc(overrides)

    def _collect_live(self) -> None:
        """Refresh the derived live-telemetry gauges (collector hook).

        Runs on every export — ``MetricsRegistry.snapshot()``, the
        OpenMetrics/JSON renderers, the scrape endpoint — never on the
        per-slot path.
        """
        metrics = self.metrics
        at = self._live_slot
        gauge = metrics.gauge
        estimator = self.rate_estimator
        matrix = estimator.matrix(at)
        for i in range(self.n):
            for j in range(self.n):
                gauge(f"rate_in{i}_out{j}").set(float(matrix[i, j]))
        rows = matrix.sum(axis=1)
        cols = matrix.sum(axis=0)
        for i in range(self.n):
            gauge(f"rate_input_{i}").set(float(rows[i]))
            gauge(f"rate_output_{i}").set(float(cols[i]))
        gauge("rate_total").set(float(matrix.sum()))
        for p, value in self.delay_histogram.percentiles().items():
            gauge(f"delay_p{p:g}".replace(".", "_")).set(value)
        gauge("queued_total").set(self.total_queued())
        if self.injector is not None:
            gauge("ports_down_input").set(int(self._down_in_prev.sum()))
            gauge("ports_down_output").set(int(self._down_out_prev.sum()))
