"""Declarative description of a multi-stage fabric experiment.

A :class:`FabricSpec` pins everything that defines a fabric simulation
point: the Clos topology ``C(m, k, r)``, the per-stage scheduler names,
the offered traffic, the flow-routing policy, the inter-stage boundary
buffers, and any per-switch fault or adaptation plans. Like
:class:`~repro.sweep.spec.SweepPoint` it round-trips through a flat
spec form (:meth:`to_spec` / :meth:`from_spec`) so sweep caches and CLI
artifacts can key it content-addressably (:meth:`key`).

Two shapes exist:

* ``stages=3`` — the real thing: ``r`` ingress switches (``k x m``),
  ``m`` middle switches (``r x r``), ``r`` egress switches (``m x k``),
  ``N = k*r`` external ports.
* ``stages=1`` — the degenerate fabric: one ``N``-port crossbar with no
  inter-stage links. Its statistics are bit-identical to plain
  :func:`repro.sim.simulator.run_simulation` (property-tested), which
  pins the composition layer to the single-switch semantics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.baselines.registry import available_schedulers
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig

__all__ = ["FabricSpec", "ROUTING_POLICIES", "UNSUPPORTED_FABRIC_SCHEDULERS"]

#: Flow-routing policies understood by the fabric engine.
ROUTING_POLICIES = ("hash", "least_loaded", "offline")

#: Registry names a stage switch cannot run. ``fifo``/``outbuf`` are
#: dedicated switch models without a VOQ pipeline; ``ocf`` ranks by
#: head-of-line *age*, which the fabric cannot supply (VOQ timestamps
#: carry end-to-end packet tags, not per-hop generation slots).
UNSUPPORTED_FABRIC_SCHEDULERS = frozenset({"fifo", "outbuf", "ocf"})

#: Per-stage switch counts of a three-stage fabric, as (stage -> count).
_STAGE_NAMES = ("ingress", "middle", "egress")


def _freeze_kwargs(kwargs) -> tuple[tuple[str, object], ...]:
    """Normalise a kwargs mapping to sorted hashable pairs."""
    if kwargs is None:
        return ()
    pairs = dict(kwargs)
    return tuple(sorted(pairs.items()))


@dataclass(frozen=True)
class FabricSpec:
    """One fabric simulation point, hashable and cache-keyable."""

    #: Middle switches (``m``), ports per outer switch (``k``), outer
    #: switches per side (``r``). External ports ``N = k * r``.
    m: int
    k: int
    r: int
    #: Registry scheduler names: one entry (all stages) or one per stage.
    schedulers: tuple[str, ...] = ("lcf_central_rr",)
    #: ``3`` for the Clos, ``1`` for the degenerate single crossbar.
    stages: int = 3
    #: Queue capacities / iterations / warmup / measure / seed. The
    #: config's ``n_ports`` must equal ``k * r``.
    config: SimConfig = field(default_factory=SimConfig)
    load: float = 0.8
    traffic: str = "bernoulli"
    traffic_kwargs: tuple[tuple[str, object], ...] = ()
    #: Middle-stage selection policy (see :mod:`repro.fabric.routing`).
    routing: str = "hash"
    #: Capacity of each inter-stage boundary queue (the downstream
    #: switch's packet queue). Backpressure credits are issued against
    #: this bound, so it is also the per-link in-flight window.
    boundary_capacity: int = 64
    #: Slots a packet (or returning credit) spends on an inter-stage
    #: link. This is the conservative-parallel lookahead: shards run
    #: ``link_delay``-slot blocks between boundary exchanges.
    link_delay: int = 1
    #: Per-switch fault plans: ``(stage, index, FaultPlan spec pairs)``.
    stage_faults: tuple[tuple[int, int, tuple], ...] = ()
    #: Per-switch adaptation configs: ``(stage, index, spec pairs)``.
    stage_adapt: tuple[tuple[int, int, tuple], ...] = ()

    def __post_init__(self) -> None:
        if self.stages not in (1, 3):
            raise ValueError(f"stages must be 1 or 3, got {self.stages}")
        if min(self.m, self.k, self.r) < 1:
            raise ValueError(
                f"m, k, r must all be >= 1, got {(self.m, self.k, self.r)}"
            )
        if self.config.n_ports != self.n_ports:
            raise ValueError(
                f"config.n_ports ({self.config.n_ports}) must equal "
                f"k*r ({self.n_ports})"
            )
        if len(self.schedulers) not in (1, self.stages):
            raise ValueError(
                f"schedulers must name 1 or {self.stages} schedulers, "
                f"got {self.schedulers!r}"
            )
        known = set(available_schedulers()) - UNSUPPORTED_FABRIC_SCHEDULERS
        for name in self.schedulers:
            if name not in known:
                raise ValueError(
                    f"scheduler {name!r} cannot drive a fabric stage "
                    f"(choose from {sorted(known)})"
                )
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"routing must be one of {ROUTING_POLICIES}, got {self.routing!r}"
            )
        if self.boundary_capacity < 1:
            raise ValueError(
                f"boundary_capacity must be >= 1, got {self.boundary_capacity}"
            )
        if self.link_delay < 1:
            raise ValueError(f"link_delay must be >= 1, got {self.link_delay}")
        if not 0.0 < self.load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {self.load}")
        counts = self.stage_counts
        for what, entries in (
            ("stage_faults", self.stage_faults),
            ("stage_adapt", self.stage_adapt),
        ):
            for stage, index, _ in entries:
                if not 0 <= stage < self.stages:
                    raise ValueError(
                        f"{what} names stage {stage} of a "
                        f"{self.stages}-stage fabric"
                    )
                if not 0 <= index < counts[stage]:
                    raise ValueError(
                        f"{what} names switch {index} of stage {stage}, "
                        f"which has {counts[stage]} switches"
                    )
        for stage, index, plan in self.stage_faults:
            # Judged as the stage switch's injector will judge it.
            try:
                FaultInjector(FaultPlan.from_spec(plan), self.stage_sizes[stage])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"stage_faults for switch {self.switch_label(stage, index)}: "
                    f"{exc}"
                ) from None

    # -- derived topology ---------------------------------------------------

    @property
    def n_ports(self) -> int:
        """External (NIC-facing) ports."""
        return self.k * self.r

    @property
    def stage_counts(self) -> tuple[int, ...]:
        """Switches per stage: ``(r, m, r)`` or ``(1,)``."""
        if self.stages == 1:
            return (1,)
        return (self.r, self.m, self.r)

    @property
    def stage_sizes(self) -> tuple[int, ...]:
        """Square crossbar size per stage. Rectangular stage switches
        (``k x m`` ingress, ``m x k`` egress) are embedded in the
        smallest square crossbar that fits; the unused rows/columns
        never see a request."""
        if self.stages == 1:
            return (self.n_ports,)
        outer = max(self.k, self.m)
        return (outer, self.r, outer)

    @property
    def n_switches(self) -> int:
        return sum(self.stage_counts)

    @property
    def stage_schedulers(self) -> tuple[str, ...]:
        """Scheduler name per stage (broadcast if one was given)."""
        if len(self.schedulers) == self.stages:
            return self.schedulers
        return self.schedulers * self.stages

    def switch_label(self, stage: int, index: int) -> str:
        """Canonical name of one stage switch (the trace ``switch`` tag)."""
        return f"s{stage}.{index}"

    def describe(self) -> str:
        """One-line human description."""
        if self.stages == 1:
            return (
                f"single {self.n_ports}-port {self.stage_schedulers[0]} crossbar"
            )
        mix = ",".join(self.stage_schedulers)
        return (
            f"C({self.m},{self.k},{self.r}) {self.n_ports}-port Clos "
            f"[{mix}] routing={self.routing} "
            f"boundary={self.boundary_capacity} delay={self.link_delay}"
        )

    # -- spec form ----------------------------------------------------------

    _CONFIG_DEFAULTS = SimConfig()

    def to_spec(self) -> tuple[tuple[str, object], ...]:
        """Flat, JSON-serialisable ``(key, value)`` pairs.

        Defaults are omitted (like :meth:`repro.faults.plan.FaultPlan.
        to_spec`), so adding a field with a default later cannot change
        the key of existing cached points.
        """
        pairs: list[tuple[str, object]] = [
            ("m", self.m),
            ("k", self.k),
            ("r", self.r),
            ("schedulers", list(self.schedulers)),
            ("load", self.load),
        ]
        if self.stages != 3:
            pairs.append(("stages", self.stages))
        config = [
            [name, getattr(self.config, name)]
            for name in (
                "n_ports", "voq_capacity", "pq_capacity", "outbuf_capacity",
                "iterations", "warmup_slots", "measure_slots", "seed",
            )
            if getattr(self.config, name) != getattr(self._CONFIG_DEFAULTS, name)
        ]
        if config:
            pairs.append(("config", config))
        if self.traffic != "bernoulli":
            pairs.append(("traffic", self.traffic))
        if self.traffic_kwargs:
            pairs.append(("traffic_kwargs", [list(p) for p in self.traffic_kwargs]))
        if self.routing != "hash":
            pairs.append(("routing", self.routing))
        if self.boundary_capacity != 64:
            pairs.append(("boundary_capacity", self.boundary_capacity))
        if self.link_delay != 1:
            pairs.append(("link_delay", self.link_delay))
        if self.stage_faults:
            pairs.append(
                ("stage_faults",
                 [[s, i, [list(p) for p in plan]] for s, i, plan in self.stage_faults])
            )
        if self.stage_adapt:
            pairs.append(
                ("stage_adapt",
                 [[s, i, [list(p) for p in cfg]] for s, i, cfg in self.stage_adapt])
            )
        return tuple(sorted(pairs))

    @classmethod
    def from_spec(cls, spec) -> "FabricSpec":
        """Rebuild from :meth:`to_spec` output (or an equivalent dict)."""
        pairs = dict(spec)
        config = cls._CONFIG_DEFAULTS
        if "config" in pairs:
            config = replace(config, **{name: value for name, value in pairs["config"]})
        m, k, r = int(pairs["m"]), int(pairs["k"]), int(pairs["r"])
        if config.n_ports != k * r:
            config = config.with_(n_ports=k * r)
        return cls(
            m=m,
            k=k,
            r=r,
            schedulers=tuple(pairs["schedulers"]),
            stages=int(pairs.get("stages", 3)),
            config=config,
            load=float(pairs["load"]),
            traffic=pairs.get("traffic", "bernoulli"),
            traffic_kwargs=tuple(
                (name, value) for name, value in pairs.get("traffic_kwargs", ())
            ),
            routing=pairs.get("routing", "hash"),
            boundary_capacity=int(pairs.get("boundary_capacity", 64)),
            link_delay=int(pairs.get("link_delay", 1)),
            stage_faults=tuple(
                (int(s), int(i), tuple(tuple(p) for p in plan))
                for s, i, plan in pairs.get("stage_faults", ())
            ),
            stage_adapt=tuple(
                (int(s), int(i), tuple(tuple(p) for p in cfg))
                for s, i, cfg in pairs.get("stage_adapt", ())
            ),
        )

    def key(self) -> str:
        """Content-addressed cache key (SHA-256 over the canonical spec)."""
        payload = json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- convenience constructors -------------------------------------------

    @classmethod
    def single(cls, n_ports: int, scheduler: str = "lcf_central_rr",
               **changes) -> "FabricSpec":
        """The degenerate one-switch fabric over ``n_ports`` ports."""
        config = changes.pop("config", None)
        if config is None:
            config = SimConfig(n_ports=n_ports)
        elif config.n_ports != n_ports:
            config = config.with_(n_ports=n_ports)
        return cls(
            m=1, k=n_ports, r=1, schedulers=(scheduler,), stages=1,
            config=config, **changes,
        )

    @classmethod
    def square(cls, n_ports: int, scheduler: str = "lcf_central_rr",
               **changes) -> "FabricSpec":
        """A square ``C(k, k, N/k)`` Clos over ``n_ports`` ports (the
        cost-minimising ``k ≈ sqrt(N)`` construction)."""
        k = int(round(n_ports**0.5))
        while n_ports % k:
            k -= 1
        config = changes.pop("config", None)
        if config is None:
            config = SimConfig(n_ports=n_ports)
        elif config.n_ports != n_ports:
            config = config.with_(n_ports=n_ports)
        return cls(
            m=k, k=k, r=n_ports // k, schedulers=(scheduler,), stages=3,
            config=config, **changes,
        )
