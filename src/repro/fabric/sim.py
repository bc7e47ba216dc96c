"""Discrete-slot simulation of a multi-stage Clos fabric.

Every stage switch is a real :class:`~repro.sim.crossbar.InputQueuedSwitch`
running a registry scheduler, composed into a fabric by three
mechanisms:

**Flow routing.** A packet entering source NIC ``src`` bound for
destination NIC ``dst`` crosses ingress switch ``src // k``, one middle
switch chosen by the spec's routing policy
(:mod:`repro.fabric.routing`), and egress switch ``dst // k``. The VOQ
destination at each hop is the *local* output port: the middle-switch
index at ingress, the egress-switch index at the middle, and
``dst % k`` at egress.

**Boundary queues + credit backpressure.** The downstream switch's
packet queues double as the inter-stage boundary buffers
(``boundary_capacity`` deep). Each upstream output holds one credit per
buffer slot: forwarding consumes a credit, and a credit returns —
``link_delay`` slots later — when the downstream queue hands the packet
to its VOQs. An output with no credits is masked out of the request
matrix via the crossbar's ``output_gate``, so a full boundary queue
backpressures the upstream scheduler instead of dropping packets:
boundary queues never overflow by construction, and all loss happens at
the source NIC queues.

**End-to-end tagging.** VOQ payload slots carry indices into a packet
store (``(src, dst, generation slot)``) instead of raw timestamps; the
``forward_sink`` hook resolves each departure against the store, so
delay and loss are measured source NIC to sink NIC, never per hop.
Stage switches run with ``measuring`` off — the engine owns all
statistics, accumulated per egress switch in exact delay histograms
and merged by adding their counts.

**Sharding.** :class:`FabricShard` is *both* the serial reference and
the unit of parallel execution: ``shards=1`` is a single shard owning
every switch, ``shards=W`` partitions the canonical switch list across
``W`` shards that run ``link_delay``-slot blocks between boundary
exchanges. Because a packet forwarded at slot ``t`` cannot arrive
before ``t + link_delay``, every cross-switch message created inside a
block is due after the block ends — the exchange at the block barrier
is exact, not approximate, and shard-count invariance (bit-identical
statistics *and* traces for any ``W``) holds by construction. The
hypothesis suite in ``tests/fabric/`` enforces it anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.adapt.adapter import make_adapter
from repro.fabric.routing import make_router
from repro.fabric.spec import FabricSpec
from repro.faults.injector import FaultInjector, hash_u64
from repro.faults.plan import FaultPlan
from repro.obs import events as ev
from repro.obs.estimators import DelayHistogram
from repro.obs.tracer import Tracer, effective_tracer
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import latency_fields, make_crossbar_scheduler
from repro.traffic.base import NO_ARRIVAL, make_traffic

__all__ = ["FabricResult", "FabricShard", "run_fabric"]

#: Exporter tick cadence (slots), matching the single-switch driver.
_SLOT_BLOCK = 64

#: Hash-domain salts for per-switch seed derivation.
_SALT_SCHED = 0x5C
_SALT_FAULT = 0xFA


@dataclass
class FabricResult:
    """End-to-end statistics of one fabric run.

    The latency fields describe source-NIC-to-sink-NIC packet delay over
    the measurement window; ``offered``/``forwarded``/``dropped`` follow
    the :class:`~repro.sim.simulator.SimResult` conventions (drops are
    counted over the whole run, offered/forwarded over the window), so a
    degenerate one-stage fabric reproduces ``run_simulation`` exactly.
    """

    spec: FabricSpec
    mean_latency: float
    std_latency: float
    min_latency: float
    max_latency: float
    offered: int
    forwarded: int
    dropped: int
    #: Packets forwarded per NIC per slot over the measurement window.
    throughput: float
    #: Packets created / delivered over the *whole* run (warmup included)
    #: — the conservation check's ledger.
    generated: int = 0
    delivered: int = 0
    #: Grants suppressed by boundary-queue backpressure (whole run).
    #: Stays 0 for well-behaved schedulers — the credit gate masks
    #: blocked outputs out of the request matrix before scheduling.
    blocked_grants: int = 0
    #: Switch-slots in which at least one output was credit-blocked —
    #: the visible backpressure activity signal.
    backpressure_slots: int = 0
    #: Grants dropped by per-switch fault gates (whole run).
    masked_grants: int = 0
    fault_events: int = 0
    recovery_events: int = 0
    degraded_slots: int = 0
    #: Packets forwarded per stage over the whole run.
    stage_forwards: tuple[int, ...] = ()
    percentiles: dict[float, float] = field(default_factory=dict)
    #: Per-(src, dst) delivered counts / delay sums over the window,
    #: when ``collect_flows`` was requested (None otherwise).
    flow_counts: np.ndarray | None = None
    flow_delay: np.ndarray | None = None

    @property
    def load(self) -> float:
        return self.spec.load

    @property
    def schedulers(self) -> tuple[str, ...]:
        return self.spec.stage_schedulers

    @property
    def loss_rate(self) -> float:
        """Fraction of offered packets dropped during measurement."""
        return self.dropped / self.offered if self.offered else 0.0

    def flow_mean_delay(self) -> np.ndarray | None:
        """Per-(src, dst) mean delay (NaN where no packet was delivered)."""
        if self.flow_counts is None:
            return None
        with np.errstate(invalid="ignore"):
            return np.where(
                self.flow_counts > 0,
                self.flow_delay / np.maximum(self.flow_counts, 1),
                math.nan,
            )

    def row(self) -> dict[str, float | str | int]:
        """Flat dict for CSV emission."""
        row: dict[str, float | str | int] = {
            "topology": self.spec.describe(),
            "schedulers": ",".join(self.schedulers),
            "routing": self.spec.routing,
            "load": self.load,
            "mean_latency": self.mean_latency,
            "std_latency": self.std_latency,
            "max_latency": self.max_latency,
            "throughput": self.throughput,
            "offered": self.offered,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "loss_rate": self.loss_rate,
            "backpressure_slots": self.backpressure_slots,
            "fault_events": self.fault_events,
            "recovery_events": self.recovery_events,
            "degraded_slots": self.degraded_slots,
        }
        for percentile in sorted(self.percentiles):
            row[f"p{percentile:g}"] = self.percentiles[percentile]
        return row


class _PacketStore:
    """Append-only table of live packets: tag -> (src, dst, t_generated).

    VOQ payload ints are indices into this table. Each shard keeps its
    own store and re-tags packets on boundary delivery — tag *values*
    are shard-local, but nothing observable depends on them (schedulers
    see occupancy only, delays are computed from the stored
    generation slot), which is what keeps shard counts interchangeable.
    """

    __slots__ = ("src", "dst", "gen")

    def __init__(self) -> None:
        self.src: list[int] = []
        self.dst: list[int] = []
        self.gen: list[int] = []

    def append(self, src: int, dst: int, gen: int) -> int:
        tag = len(self.gen)
        self.src.append(src)
        self.dst.append(dst)
        self.gen.append(gen)
        return tag

    def __len__(self) -> int:
        return len(self.gen)


class _BufferTracer(Tracer):
    """Per-switch event buffer; stamps every event with its switch label.

    The fabric merges buffers into the user's tracer in canonical
    ``(slot, stage, index, emission order)`` order after the run — the
    same order however many shards emitted them.
    """

    def __init__(self, label: str):
        super().__init__()
        self.label = label
        self.events: list[dict] = []

    @property
    def enabled(self) -> bool:
        return True

    def emit(self, event: dict) -> None:
        event["switch"] = self.label
        self.events.append(event)


class FabricShard:
    """One partition of the fabric: its switches, queues and credits.

    ``shard_id``/``n_shards`` slice the canonical switch list
    contiguously; ``(0, 1)`` owns everything and is the serial engine.
    All cross-switch traffic (packet deliveries and credit returns) is
    expressed as *messages with a due slot*; messages to owned switches
    go straight into the local calendars, messages to foreign switches
    accumulate in the outbound buffers that :meth:`run_block` returns
    at each ``link_delay``-slot barrier.
    """

    def __init__(
        self,
        spec: FabricSpec,
        shard_id: int = 0,
        n_shards: int = 1,
        *,
        collect_flows: bool = False,
        tracing: bool = False,
        offline_routing=None,
    ):
        self.spec = spec
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.collect_flows = collect_flows
        self.tracing = tracing

        counts = spec.stage_counts
        self.last_stage = spec.stages - 1
        self._warmup = spec.config.warmup_slots
        self._k = spec.k
        self._delay = spec.link_delay

        #: Canonical switch list and this shard's contiguous slice of it.
        self.all_coords = [
            (stage, index)
            for stage in range(spec.stages)
            for index in range(counts[stage])
        ]
        total = len(self.all_coords)
        lo = shard_id * total // n_shards
        hi = (shard_id + 1) * total // n_shards
        self.owned = self.all_coords[lo:hi]
        self._owned_set = frozenset(self.owned)

        self._store = _PacketStore()
        self._pattern = make_traffic(
            spec.traffic,
            spec.n_ports,
            spec.load,
            seed=spec.config.seed,
            **dict(spec.traffic_kwargs),
        )
        self._router = (
            make_router(spec.routing, spec.m, spec.k, spec.config.seed,
                        offline_routing=offline_routing)
            if spec.stages == 3
            else None
        )
        #: Ingress switches this shard generates traffic for.
        self._gen_ingress = frozenset(
            index for stage, index in self.owned if stage == 0
        )

        # Message calendars: due slot -> payload list.
        self._deliveries: dict[int, list[tuple]] = {}
        self._credit_returns: dict[int, list[tuple]] = {}
        self._out_deliveries: list[tuple] = []
        self._out_credits: list[tuple] = []

        # Statistics (per egress switch, merged canonically at the end).
        self.offered = 0
        self.forwarded = 0
        self.generated = 0
        self.delivered = 0
        #: Switch-slots in which at least one output was credit-blocked
        #: (the visible backpressure signal; the scheduler sees blocked
        #: outputs as absent requests, so ``blocked_grants`` stays 0 for
        #: well-behaved schedulers).
        self.backpressure_slots = 0
        self.stage_forwards = [0] * spec.stages
        self._egress_delays: dict[int, DelayHistogram] = {}
        self._flow_counts = (
            np.zeros((spec.n_ports, spec.n_ports), dtype=np.int64)
            if collect_flows
            else None
        )
        self._flow_delay = (
            np.zeros((spec.n_ports, spec.n_ports), dtype=np.int64)
            if collect_flows
            else None
        )

        self.switches: dict[tuple[int, int], InputQueuedSwitch] = {}
        self.tracers: dict[tuple[int, int], _BufferTracer] = {}
        self._credits: dict[tuple[int, int], np.ndarray] = {}
        self._blocked_buf: dict[tuple[int, int], np.ndarray] = {}
        self._empty_arrivals: dict[int, np.ndarray] = {}
        self._real_inputs: dict[tuple[int, int], int] = {}
        fault_plans = {
            (stage, index): FaultPlan.from_spec(plan)
            for stage, index, plan in spec.stage_faults
        }
        adapt_specs = {
            (stage, index): cfg for stage, index, cfg in spec.stage_adapt
        }
        for coord in self.owned:
            self._build_switch(coord, fault_plans.get(coord),
                               adapt_specs.get(coord))
            if coord[0] == self.last_stage:
                self._egress_delays[coord[1]] = DelayHistogram()

    # -- construction -------------------------------------------------------

    def _switch_seed(self, salt: int, stage: int, index: int) -> int:
        """Per-switch seed; the degenerate fabric keeps the config seed
        verbatim so it is bit-identical to ``run_simulation``."""
        if self.spec.stages == 1:
            return self.spec.config.seed
        return hash_u64(self.spec.config.seed, salt, stage, index) % (1 << 31)

    def _real_input_count(self, stage: int) -> int:
        """Inputs of a stage switch that have an upstream link."""
        spec = self.spec
        if stage == 0 or spec.stages == 1:
            return spec.k if spec.stages == 3 else spec.n_ports
        return spec.r if stage == 1 else spec.m

    def _downstream_links(self, stage: int) -> int:
        """Outputs of a stage switch wired to a boundary queue."""
        return self.spec.m if stage == 0 else self.spec.r

    def _build_switch(self, coord, plan, adapt_spec) -> None:
        spec = self.spec
        stage, index = coord
        size = spec.stage_sizes[stage]
        pq_capacity = (
            spec.config.pq_capacity
            if stage == 0
            else spec.boundary_capacity
        )
        config = spec.config.with_(n_ports=size, pq_capacity=pq_capacity)

        injector = None
        if plan is not None and not plan.is_null:
            injector = FaultInjector(
                plan, size, seed=self._switch_seed(_SALT_FAULT, stage, index)
            )
        scheduler = make_crossbar_scheduler(
            spec.stage_schedulers[stage],
            size,
            iterations=config.iterations,
            seed=self._switch_seed(_SALT_SCHED, stage, index),
            injector=injector,
        )

        adapter = make_adapter(adapt_spec) if adapt_spec else None
        if adapter is not None:
            adapter.reset()

        tracer = None
        if self.tracing:
            tracer = _BufferTracer(spec.switch_label(stage, index))
            self.tracers[coord] = tracer

        gate = None
        if spec.stages == 3 and stage < self.last_stage:
            credits = np.full(
                self._downstream_links(stage), spec.boundary_capacity,
                dtype=np.int64,
            )
            blocked = np.zeros(size, dtype=bool)
            self._credits[coord] = credits
            self._blocked_buf[coord] = blocked

            def gate(slot, _credits=credits, _blocked=blocked):
                if int(_credits.min()) > 0:
                    return None
                self.backpressure_slots += 1
                _blocked[: len(_credits)] = _credits <= 0
                return _blocked

        def sink(slot, i, j, tag, _stage=stage, _index=index):
            return self._on_forward(_stage, _index, slot, i, j, tag)

        self.switches[coord] = InputQueuedSwitch(
            config,
            scheduler,
            tracer=tracer,
            injector=injector,
            adapter=adapter,
            output_gate=gate,
            forward_sink=sink,
        )
        self._real_inputs[coord] = self._real_input_count(stage)
        if size not in self._empty_arrivals:
            self._empty_arrivals[size] = np.full(size, NO_ARRIVAL, dtype=np.int64)

    # -- the slot pipeline --------------------------------------------------

    def _on_forward(self, stage: int, index: int, slot: int, i: int,
                    j: int, tag: int) -> int:
        """``forward_sink`` for one stage switch: route or retire the
        packet; returns the cumulative delay recorded in traces."""
        store = self._store
        gen = store.gen[tag]
        delay = slot - gen + 1
        self.stage_forwards[stage] += 1
        if stage == self.last_stage:
            self.delivered += 1
            if slot >= self._warmup:
                self.forwarded += 1
                self._egress_delays[index].add(delay)
                if self._flow_counts is not None:
                    src, dst = store.src[tag], store.dst[tag]
                    self._flow_counts[src, dst] += 1
                    self._flow_delay[src, dst] += delay
            return delay

        self._credits[(stage, index)][j] -= 1
        dst = store.dst[tag]
        if stage == 0:
            target = (1, j)
            next_dst = dst // self._k
        else:
            target = (2, j)
            next_dst = dst % self._k
        message = (
            target[0], target[1], index, next_dst,
            store.src[tag], dst, gen,
        )
        due = slot + self._delay
        if target in self._owned_set:
            self._deliveries.setdefault(due, []).append(message)
        else:
            self._out_deliveries.append((due, *message))
        return delay

    def _slot(self, slot: int) -> None:
        spec = self.spec
        measuring = slot >= self._warmup

        # 1a. Credit returns that finished crossing the link.
        for stage, index, output in self._credit_returns.pop(slot, ()):
            self._credits[(stage, index)][output] += 1

        # 1b. Boundary deliveries due this slot, in canonical order.
        #     At most one packet per (switch, input) per slot can be in
        #     flight, so the sort key is unique and the order exact.
        due = self._deliveries.pop(slot, None)
        if due:
            due.sort(key=lambda msg: msg[:3])
            for stage, index, input_, local_dst, src, dst, gen in due:
                switch = self.switches[(stage, index)]
                tag = self._store.append(src, dst, gen)
                accepted = switch.pqs[input_].push(local_dst, tag)
                if not accepted:  # pragma: no cover - credits forbid this
                    raise RuntimeError(
                        f"boundary queue overflow at {(stage, index, input_)}"
                    )
                tracer = self.tracers.get((stage, index))
                if tracer is not None:
                    tracer.emit(ev.arrival(slot, input_, local_dst))

        # 2. Source-NIC generation. Every shard draws the full arrival
        #    vector (identical seeded streams keep the sample path equal
        #    to the serial engine's) but admits only its own ingress
        #    switches' ports.
        arrivals = self._pattern.arrivals()
        k = self._k
        for src in range(spec.n_ports):
            dst = arrivals[src]
            if dst == NO_ARRIVAL:
                continue
            dst = int(dst)
            if spec.stages == 1:
                ingress, local_input, local_dst = 0, src, dst
            else:
                ingress = src // k
                if ingress not in self._gen_ingress:
                    continue
                local_input = src % k
                local_dst = self._router.middle_for(
                    src, dst, self.switches[(0, ingress)]
                )
            if spec.stages == 1 and (0, 0) not in self._owned_set:
                continue  # pragma: no cover - single switch is always owned
            if measuring:
                self.offered += 1
            self.generated += 1
            tag = self._store.append(src, dst, slot)
            accepted = self.switches[(0, ingress)].pqs[local_input].push(
                local_dst, tag
            )
            tracer = self.tracers.get((0, ingress))
            if tracer is not None:
                tracer.emit(ev.arrival(slot, local_input, local_dst))
                if not accepted:
                    tracer.emit(ev.drop(slot, local_input, local_dst))

        # 3. Step every owned switch in canonical order; detect boundary
        #    queue pops afterwards to schedule credit returns.
        for coord in self.owned:
            stage, index = coord
            switch = self.switches[coord]
            if stage > 0:
                real = self._real_inputs[coord]
                before = [len(switch.pqs[i]) for i in range(real)]
            switch.step(slot, self._empty_arrivals[switch.n])
            if stage > 0:
                for i in range(real):
                    if len(switch.pqs[i]) < before[i]:
                        upstream = (
                            (0, i, index) if stage == 1 else (1, i, index)
                        )
                        if upstream[:2] in self._owned_set:
                            self._credit_returns.setdefault(
                                slot + self._delay, []
                            ).append(upstream)
                        else:
                            self._out_credits.append(
                                (slot + self._delay, *upstream)
                            )

    def run_block(
        self,
        first_slot: int,
        n_slots: int,
        inbound_deliveries=(),
        inbound_credits=(),
    ) -> tuple[list[tuple], list[tuple]]:
        """Advance ``n_slots`` consecutive slots; returns the outbound
        (deliveries, credit returns) for foreign shards. ``n_slots``
        must not exceed ``link_delay`` when other shards exist — the
        exchange is only exact at or below the lookahead."""
        for due, *message in inbound_deliveries:
            self._deliveries.setdefault(due, []).append(tuple(message))
        for due, stage, index, output in inbound_credits:
            self._credit_returns.setdefault(due, []).append(
                (stage, index, output)
            )
        for slot in range(first_slot, first_slot + n_slots):
            self._slot(slot)
        out = (self._out_deliveries, self._out_credits)
        self._out_deliveries = []
        self._out_credits = []
        return out

    # -- harvest ------------------------------------------------------------

    def total_queued(self) -> int:
        """Packets currently buffered in owned switches."""
        return sum(sw.total_queued() for sw in self.switches.values())

    def stage_queued(self, stage: int) -> int:
        return sum(
            sw.total_queued()
            for (s, _), sw in self.switches.items()
            if s == stage
        )

    def harvest(self) -> dict:
        """Everything the merge step needs, picklable for the process
        backend."""
        return {
            "egress_delays": dict(self._egress_delays),
            "offered": self.offered,
            "forwarded": self.forwarded,
            "generated": self.generated,
            "delivered": self.delivered,
            "dropped": sum(
                sw.dropped
                for (stage, _), sw in self.switches.items()
                if stage == 0
            ),
            "blocked_grants": sum(
                sw.blocked_grants for sw in self.switches.values()
            ),
            "backpressure_slots": self.backpressure_slots,
            "masked_grants": sum(
                sw.masked_grants for sw in self.switches.values()
            ),
            "fault_events": sum(
                sw.fault_events for sw in self.switches.values()
            ),
            "recovery_events": sum(
                sw.recovery_events for sw in self.switches.values()
            ),
            "degraded_slots": sum(
                sw.degraded_slots for sw in self.switches.values()
            ),
            "stage_forwards": list(self.stage_forwards),
            "flow_counts": self._flow_counts,
            "flow_delay": self._flow_delay,
            "traces": {
                coord: tracer.events for coord, tracer in self.tracers.items()
            },
        }

    # -- checkpoint ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Complete shard state as tagged JSON (see `repro.checkpoint`).

        The generic capture skips tracers as wiring, but this shard's
        :class:`_BufferTracer` buffers *are* state — their events feed
        the merged trace at harvest — so they are captured explicitly,
        keyed ``"stage,index"`` to stay JSON-safe.
        """
        from repro.checkpoint import snapshot_state

        state = snapshot_state(self)
        state["tracers"] = {
            f"{stage},{index}": [dict(event) for event in tracer.events]
            for (stage, index), tracer in sorted(self.tracers.items())
        }
        return state

    def restore(self, snapshot: dict) -> None:
        """Restore a :meth:`snapshot` capture onto this freshly built
        shard (same spec, shard_id, n_shards, and flags)."""
        from repro.checkpoint import restore_state

        snapshot = dict(snapshot)
        buffered = snapshot.pop("tracers", {})
        restore_state(self, snapshot)
        for key, events in buffered.items():
            stage, index = (int(part) for part in key.split(","))
            self.tracers[(stage, index)].events = [
                dict(event) for event in events
            ]


def _merge_harvests(
    spec: FabricSpec,
    harvests: list[dict],
    tracer,
    collect_percentiles: bool,
) -> FabricResult:
    """Fold shard harvests into one result, in canonical switch order.

    The per-egress delay histograms add counts, which no fold order can
    change; trace events fold in a fixed order (``(slot, stage, index,
    emission order)``), identical whether one shard or many produced
    them — this is where bit-identity across shard counts is decided,
    so nothing here may depend on shard boundaries.
    """
    delays = DelayHistogram()
    for harvest in harvests:
        for egress in harvest["egress_delays"].values():
            delays.merge(egress)

    if tracer is not None:
        events: list[tuple[int, int, int, int, dict]] = []
        for harvest in harvests:
            for (stage, index), buffer in harvest["traces"].items():
                events.extend(
                    (event["slot"], stage, index, seq, event)
                    for seq, event in enumerate(buffer)
                )
        events.sort(key=lambda item: item[:4])
        for *_, event in events:
            tracer.emit(event)

    def total(key: str) -> int:
        return sum(harvest[key] for harvest in harvests)

    flow_counts = flow_delay = None
    if any(h["flow_counts"] is not None for h in harvests):
        flow_counts = sum(
            h["flow_counts"] for h in harvests if h["flow_counts"] is not None
        )
        flow_delay = sum(
            h["flow_delay"] for h in harvests if h["flow_delay"] is not None
        )

    stage_forwards = [0] * spec.stages
    for harvest in harvests:
        for stage, count in enumerate(harvest["stage_forwards"]):
            stage_forwards[stage] += count

    forwarded = total("forwarded")
    port_slots = spec.n_ports * spec.config.measure_slots
    return FabricResult(
        spec=spec,
        **latency_fields(delays, collect_percentiles),
        offered=total("offered"),
        forwarded=forwarded,
        dropped=total("dropped"),
        throughput=forwarded / port_slots if port_slots else math.nan,
        generated=total("generated"),
        delivered=total("delivered"),
        blocked_grants=total("blocked_grants"),
        backpressure_slots=total("backpressure_slots"),
        masked_grants=total("masked_grants"),
        fault_events=total("fault_events"),
        recovery_events=total("recovery_events"),
        degraded_slots=total("degraded_slots"),
        stage_forwards=tuple(stage_forwards),
        flow_counts=flow_counts,
        flow_delay=flow_delay,
    )


def _drive_blocks(
    spec: FabricSpec,
    engines: list[FabricShard],
    *,
    start_slot: int = 0,
    inbound_d: list[list[tuple]] | None = None,
    inbound_c: list[list[tuple]] | None = None,
    run_spec: dict | None = None,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
    stop_at_slot: int | None = None,
) -> list[dict]:
    """Advance inline engines block by block, checkpointing at barriers.

    The drive loop of `run_fabric`'s inline shards and checkpointed
    runs, and of `repro.fabric.checkpoint.resume_fabric`. Without a
    ``checkpoint_path`` it only exchanges boundary messages at each
    barrier. Blocks are capped so a
    barrier lands exactly on every ``checkpoint_every`` multiple and on
    ``stop_at_slot``; a checkpoint is written at each cadence barrier
    (and at the stop slot) but never at run completion.
    """
    shards = len(engines)
    owner = {
        coord: shard_id
        for shard_id, engine in enumerate(engines)
        for coord in engine.owned
    }
    if inbound_d is None:
        inbound_d = [[] for _ in range(shards)]
    if inbound_c is None:
        inbound_c = [[] for _ in range(shards)]
    total_slots = spec.config.total_slots
    stop = total_slots if stop_at_slot is None else min(stop_at_slot, total_slots)
    block = spec.link_delay
    next_due = None
    if checkpoint_every is not None:
        next_due = (start_slot // checkpoint_every + 1) * checkpoint_every

    slot = start_slot
    while slot < stop:
        n_slots = min(block, stop - slot)
        if next_due is not None:
            n_slots = min(n_slots, next_due - slot)
        next_d: list[list[tuple]] = [[] for _ in range(shards)]
        next_c: list[list[tuple]] = [[] for _ in range(shards)]
        for shard_id, engine in enumerate(engines):
            out_d, out_c = engine.run_block(
                slot, n_slots, inbound_d[shard_id], inbound_c[shard_id]
            )
            for message in out_d:
                next_d[owner[(message[1], message[2])]].append(message)
            for message in out_c:
                next_c[owner[(message[1], message[2])]].append(message)
        inbound_d, inbound_c = next_d, next_c
        slot += n_slots
        if checkpoint_path is not None and slot < total_slots:
            at_cadence = next_due is not None and slot >= next_due
            if at_cadence or slot == stop_at_slot:
                from repro.fabric.checkpoint import write_fabric_checkpoint

                write_fabric_checkpoint(
                    checkpoint_path, run_spec, slot, engines,
                    inbound_d, inbound_c,
                )
            if next_due is not None:
                while next_due <= slot:
                    next_due += checkpoint_every
    return [engine.harvest() for engine in engines]


def run_fabric(
    spec: FabricSpec,
    *,
    shards: int = 1,
    backend: str = "inline",
    tracer=None,
    metrics=None,
    exporter=None,
    collect_percentiles: bool = False,
    collect_flows: bool = False,
    offline_routing=None,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
    stop_at_slot: int | None = None,
) -> FabricResult:
    """Simulate one :class:`~repro.fabric.spec.FabricSpec` point.

    ``shards=1`` runs the serial reference engine in-process.
    ``shards=W`` partitions the switches across ``W`` shards advancing
    in ``link_delay``-slot blocks with boundary exchange at each
    barrier; ``backend`` picks ``"inline"`` (same process — the
    invariance-testing harness) or ``"process"`` (one worker process
    per shard via :mod:`repro.fabric.shard`). Results are bit-identical
    across shard counts and backends.

    ``tracer`` collects per-switch events (each stamped with a
    ``switch`` label) merged in canonical order after the run;
    ``metrics``/``exporter`` attach live per-stage gauges and periodic
    OpenMetrics snapshots (single-shard engine only — live telemetry
    has no meaning half-merged). Stage schedulers come from
    :func:`repro.sim.simulator.make_crossbar_scheduler`.

    ``checkpoint_path``/``checkpoint_every``/``stop_at_slot`` write
    per-shard checkpoints at barrier slots so a killed run resumes via
    :func:`repro.fabric.checkpoint.resume_fabric` with bit-identical
    results (inline engines only; not with live metrics/exporters or
    ``offline_routing``). See ``docs/CHECKPOINT.md``.
    """
    from repro.obs.serve import effective_exporter

    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if backend not in ("inline", "process"):
        raise ValueError(f"backend must be 'inline' or 'process', got {backend!r}")
    if checkpoint_path is None and (
        checkpoint_every is not None or stop_at_slot is not None
    ):
        raise ValueError(
            "checkpoint_every/stop_at_slot need a checkpoint_path to write to"
        )
    if checkpoint_path is not None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if stop_at_slot is not None and stop_at_slot < 0:
            raise ValueError(f"stop_at_slot must be >= 0, got {stop_at_slot}")
        if backend == "process":
            raise ValueError(
                "checkpointing needs the inline engines (backend='inline')"
            )
        if metrics is not None or exporter is not None:
            raise ValueError(
                "checkpointing does not support live metrics/exporters"
            )
        if offline_routing is not None:
            raise ValueError(
                "checkpointing cannot serialise an offline_routing table"
            )
    shards = min(shards, spec.n_switches)
    exporter = effective_exporter(exporter)
    if exporter is not None and metrics is None:
        metrics = exporter.registry
    if shards > 1 and metrics is not None:
        raise ValueError(
            "live metrics/exporter require the single-shard engine "
            "(shards=1); pass a tracer for sharded observability"
        )
    tracer = effective_tracer(tracer)
    tracing = tracer is not None

    total_slots = spec.config.total_slots
    shard_kwargs = dict(
        collect_flows=collect_flows,
        tracing=tracing,
        offline_routing=offline_routing,
    )

    if checkpoint_path is None and shards == 1:
        shard = FabricShard(spec, 0, 1, **shard_kwargs)
        if metrics is not None:
            _attach_metrics(metrics, shard)
        for slot in range(total_slots):
            shard._slot(slot)
            if exporter is not None and (slot + 1) % _SLOT_BLOCK == 0:
                exporter.tick(slot)
        if exporter is not None and total_slots:
            exporter.write(total_slots - 1)
        harvests = [shard.harvest()]
    elif backend == "process":
        from repro.fabric.shard import run_sharded_process

        harvests = run_sharded_process(spec, shards, shard_kwargs)
    else:
        # Inline shards exchanging at every block barrier (the cheap
        # harness the invariance property tests drive), checkpointing
        # at barriers when asked.
        engines = [
            FabricShard(spec, shard_id, shards, **shard_kwargs)
            for shard_id in range(shards)
        ]
        run_spec = None
        if checkpoint_path is not None:
            from repro.fabric.checkpoint import make_fabric_run_spec

            run_spec = make_fabric_run_spec(
                spec=spec,
                shards=shards,
                collect_percentiles=collect_percentiles,
                collect_flows=collect_flows,
                tracing=tracing,
                checkpoint_every=checkpoint_every,
            )
        harvests = _drive_blocks(
            spec,
            engines,
            run_spec=run_spec,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            stop_at_slot=stop_at_slot,
        )

    return _merge_harvests(spec, harvests, tracer, collect_percentiles)


def _attach_metrics(metrics, shard: FabricShard) -> None:
    """Register the per-stage occupancy gauges on a live registry."""
    spec = shard.spec

    def collect() -> None:
        for stage in range(spec.stages):
            metrics.gauge(f"stage{stage}_queued").set(shard.stage_queued(stage))
        metrics.gauge("fabric_generated").set(shard.generated)
        metrics.gauge("fabric_delivered").set(shard.delivered)
        metrics.gauge("fabric_offered").set(shard.offered)
        metrics.gauge("fabric_forwarded").set(shard.forwarded)
        metrics.gauge("fabric_blocked_grants").set(
            sum(sw.blocked_grants for sw in shard.switches.values())
        )
        for stage in range(spec.stages - 1):
            available = sum(
                int(credits.sum())
                for (s, _), credits in shard._credits.items()
                if s == stage
            )
            metrics.gauge(f"stage{stage}_credits").set(available)

    metrics.add_collector("fabric-live", collect)
