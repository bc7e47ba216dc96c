"""Fault schedules: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is a frozen, declarative description of every
failure a run should experience — port outages, per-link request-mask
outages, control-message loss probabilities, and CRC corruption
bursts on the Clint channels. It contains **no randomness**: the plan
says "grant messages are lost with probability 0.1"; the
:class:`~repro.faults.injector.FaultInjector` turns that into concrete,
seed-deterministic per-message decisions.

Plans round-trip through :meth:`FaultPlan.to_spec` /
:meth:`FaultPlan.from_spec` as flat ``(key, value)`` tuples so they can
ride inside a frozen :class:`~repro.sweep.spec.SweepSpec` and be folded
into the sweep cache key — a faulted sweep point caches and resumes
exactly like a fault-free one.

All intervals are half-open ``[start, end)`` in simulation slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = [
    "PortDownInterval",
    "PortDutyCycle",
    "LinkOutage",
    "CrcBurst",
    "FaultPlan",
]


def _check_interval(name: str, start: int, end: int) -> None:
    if start < 0 or end < start:
        raise ValueError(f"{name}: need 0 <= start <= end, got [{start}, {end})")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class PortDownInterval:
    """Port ``port`` is dead for slots ``start <= slot < end``.

    ``side`` selects which half of the port fails: ``"input"`` (the
    ingress line card — no injection, no requests from this input),
    ``"output"`` (the egress — no grants to this output), or ``"both"``.
    """

    port: int
    start: int
    end: int
    side: str = "both"

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"port must be >= 0, got {self.port}")
        _check_interval("PortDownInterval", self.start, self.end)
        if self.side not in ("input", "output", "both"):
            raise ValueError(f"side must be input/output/both, got {self.side!r}")

    def active(self, slot: int) -> bool:
        return self.start <= slot < self.end

    @property
    def hits_input(self) -> bool:
        return self.side in ("input", "both")

    @property
    def hits_output(self) -> bool:
        return self.side in ("output", "both")


@dataclass(frozen=True)
class PortDutyCycle:
    """Periodic port outage: ``port`` is down whenever
    ``(slot - offset) % period < down`` — the primitive behind the
    resilience harness's availability axis (mean availability is
    ``1 - down/period``). A compact alternative to enumerating
    :class:`PortDownInterval` records for long runs."""

    port: int
    period: int
    down: int
    offset: int = 0
    side: str = "both"

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"port must be >= 0, got {self.port}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0 <= self.down <= self.period:
            raise ValueError(
                f"down must be in [0, period], got {self.down} of {self.period}"
            )
        if self.side not in ("input", "output", "both"):
            raise ValueError(f"side must be input/output/both, got {self.side!r}")

    def active(self, slot: int) -> bool:
        return (slot - self.offset) % self.period < self.down

    @property
    def hits_input(self) -> bool:
        return self.side in ("input", "both")

    @property
    def hits_output(self) -> bool:
        return self.side in ("output", "both")


@dataclass(frozen=True)
class LinkOutage:
    """The single crosspoint ``(input, output)`` is unusable for
    ``start <= slot < end`` — its request-matrix entry is masked while
    every other pair of both ports keeps working."""

    input: int
    output: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.input < 0 or self.output < 0:
            raise ValueError(
                f"link endpoints must be >= 0, got ({self.input}, {self.output})"
            )
        _check_interval("LinkOutage", self.start, self.end)

    def active(self, slot: int) -> bool:
        return self.start <= slot < self.end


@dataclass(frozen=True)
class CrcBurst:
    """Clint packets of one host are corrupted in flight (one bit flip
    per packet) for ``start <= slot < end``.

    ``channel`` selects the victim: ``"cfg"`` (host -> switch
    configuration packets) or ``"gnt"`` (switch -> host grant packets).
    The CRC-16 path must detect every corrupted packet — the burst
    exercises the Section 4.1 ``CRCErr`` / ``linkErr`` reporting.
    """

    host: int
    start: int
    end: int
    channel: str = "cfg"

    def __post_init__(self) -> None:
        if self.host < 0:
            raise ValueError(f"host must be >= 0, got {self.host}")
        _check_interval("CrcBurst", self.start, self.end)
        if self.channel not in ("cfg", "gnt"):
            raise ValueError(f"channel must be cfg or gnt, got {self.channel!r}")

    def active(self, slot: int) -> bool:
        return self.start <= slot < self.end


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault schedule for one run (empty = perfect hardware).

    Message-loss probabilities apply to the distributed schedulers'
    request/grant/accept control plane per *individual message* (every
    other scheduler sees request loss only: the crossbar thins its
    request view — see :mod:`repro.sim.crossbar`).
    """

    port_down: tuple[PortDownInterval, ...] = ()
    port_duty: tuple[PortDutyCycle, ...] = ()
    link_down: tuple[LinkOutage, ...] = ()
    #: Per-message loss probability of request messages (carrying nrq).
    request_loss: float = 0.0
    #: Per-message loss probability of grant messages (carrying ngt).
    grant_loss: float = 0.0
    #: Per-message loss probability of accept messages.
    accept_loss: float = 0.0
    crc_bursts: tuple[CrcBurst, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Specs deserialised from sweep kwargs arrive as nested tuples.
        object.__setattr__(
            self,
            "port_down",
            tuple(
                p if isinstance(p, PortDownInterval) else PortDownInterval(*p)
                for p in self.port_down
            ),
        )
        object.__setattr__(
            self,
            "port_duty",
            tuple(
                d if isinstance(d, PortDutyCycle) else PortDutyCycle(*d)
                for d in self.port_duty
            ),
        )
        object.__setattr__(
            self,
            "link_down",
            tuple(
                o if isinstance(o, LinkOutage) else LinkOutage(*o)
                for o in self.link_down
            ),
        )
        object.__setattr__(
            self,
            "crc_bursts",
            tuple(
                b if isinstance(b, CrcBurst) else CrcBurst(*b)
                for b in self.crc_bursts
            ),
        )
        for name in ("request_loss", "grant_loss", "accept_loss"):
            _check_probability(name, getattr(self, name))

    # -- classification ------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True iff the plan injects nothing at all."""
        return (
            not self.port_down
            and not any(d.down for d in self.port_duty)
            and not self.link_down
            and not self.crc_bursts
            and not self.has_message_faults
        )

    @property
    def has_message_faults(self) -> bool:
        """True iff any control-message probability is non-zero."""
        return bool(self.request_loss or self.grant_loss or self.accept_loss)

    @property
    def has_topology_faults(self) -> bool:
        """True iff any port or link outage is scheduled."""
        return bool(
            self.port_down
            or any(d.down for d in self.port_duty)
            or self.link_down
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def message_loss(cls, rate: float) -> "FaultPlan":
        """Uniform control-plane loss: every message kind at ``rate``."""
        return cls(request_loss=rate, grant_loss=rate, accept_loss=rate)

    @classmethod
    def availability(
        cls,
        n_ports: int,
        availability: float,
        period: int = 400,
        ports: tuple[int, ...] | None = None,
    ) -> "FaultPlan":
        """Duty-cycled port outages averaging the given availability.

        Each selected port is down for ``round((1 - availability) *
        period)`` slots of every ``period``-slot cycle, with outage
        windows staggered across ports so the fabric never loses every
        port at once (unless availability is 0). Deterministic — the
        resilience harness's availability axis.
        """
        _check_probability("availability", availability)
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        down = round((1.0 - availability) * period)
        if down == 0:
            return cls()
        victims = tuple(range(n_ports)) if ports is None else ports
        stagger = max(1, period // max(len(victims), 1))
        return cls(
            port_duty=tuple(
                PortDutyCycle(port, period, down, offset=(k * stagger) % period)
                for k, port in enumerate(victims)
            )
        )

    # -- sweep-spec round trip -----------------------------------------------

    def to_spec(self) -> tuple[tuple[str, object], ...]:
        """Flatten to sorted ``(key, value)`` pairs (hashable, reprable)
        suitable for ``SweepSpec.fault_kwargs``; defaults are omitted so
        the empty plan flattens to ``()``."""
        spec: list[tuple[str, object]] = []
        if self.port_down:
            spec.append(
                (
                    "port_down",
                    tuple((p.port, p.start, p.end, p.side) for p in self.port_down),
                )
            )
        if self.port_duty:
            spec.append(
                (
                    "port_duty",
                    tuple(
                        (d.port, d.period, d.down, d.offset, d.side)
                        for d in self.port_duty
                    ),
                )
            )
        if self.link_down:
            spec.append(
                (
                    "link_down",
                    tuple((o.input, o.output, o.start, o.end) for o in self.link_down),
                )
            )
        if self.crc_bursts:
            spec.append(
                (
                    "crc_bursts",
                    tuple((b.host, b.start, b.end, b.channel) for b in self.crc_bursts),
                )
            )
        for name in ("request_loss", "grant_loss", "accept_loss"):
            value = getattr(self, name)
            if value:
                spec.append((name, value))
        return tuple(sorted(spec))

    @classmethod
    def from_spec(cls, spec) -> "FaultPlan":
        """Inverse of :meth:`to_spec`; also accepts a plain dict."""
        pairs = dict(spec) if not isinstance(spec, dict) else spec
        known = {f.name for f in fields(cls)}
        unknown = set(pairs) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        return cls(**pairs)

    def describe(self) -> str:
        """One-line human summary for CLI banners and progress lines."""
        if self.is_null:
            return "no faults"
        parts = []
        if self.port_down or self.port_duty:
            parts.append(
                f"{len(self.port_down) + len(self.port_duty)} port outage(s)"
            )
        if self.link_down:
            parts.append(f"{len(self.link_down)} link outage(s)")
        if self.has_message_faults:
            parts.append(
                "msg loss req/gnt/acc="
                f"{self.request_loss:g}/{self.grant_loss:g}/{self.accept_loss:g}"
            )
        if self.crc_bursts:
            parts.append(f"{len(self.crc_bursts)} CRC burst(s)")
        return ", ".join(parts)
