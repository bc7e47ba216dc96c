"""Paper-check analytics over the trace/metrics firehose.

Three analyses the PR-2 tracer unlocked, now actually computed:

* :class:`MessageAccountingProbe` — empirical message-bit accounting
  from ``iteration`` events versus the Section 6.2 analytic model
  :func:`repro.hw.comm.distributed_bits`. The model charges every
  executed iteration ``n² · (2·log2 n + 3)`` bits (all pair wires drive
  their Figure 10b fields every round); the probe re-derives that
  per-iteration charge independently from the
  :func:`~repro.hw.comm.distributed_messages` field widths and counts
  iterations off the event stream, so the two totals cross-check the
  closed form against the protocol as traced. It also reports what the
  fixed-``i`` model *overcharges* (the scheduler stops iterating once
  converged) and the live-bit utilisation (only live request pairs
  carry payload).
* :class:`FairnessProbe` — per-pair service counts at load ≈ 1.0
  correlated with ``rr_override`` events, checking the paper's Section
  5 claim that the round-robin overlay visits every matrix position
  once per ``n²`` cycles: every pair with backlog is served at least
  ``b/n²`` of the time (``b`` = 1 guaranteed slot per RR sweep).
* :func:`run_matching_dashboard` — matching efficiency (achieved /
  Hopcroft–Karp maximum, via
  :class:`~repro.obs.probe.MatchingQualityProbe`) versus load per
  scheduler across the Figure 12 grid, joined with the cached sweep's
  latency/throughput columns. ``lcf-report --dashboard`` renders it as
  CSV plus a plot (matplotlib when installed, ASCII otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.hw.comm import distributed_bits, distributed_messages
from repro.ioutil import atomic_write_text
from repro.obs import events as ev
from repro.obs.probe import MatchingQualityProbe

__all__ = [
    "MessageAccountingProbe",
    "MessageAccountingReport",
    "FairnessProbe",
    "FairnessReport",
    "DashboardRow",
    "run_matching_dashboard",
    "write_dashboard_csv",
    "write_dashboard_plot",
]


# ---------------------------------------------------------------------------
# Section 6.2: empirical message accounting vs distributed_bits(n, i)
# ---------------------------------------------------------------------------


@dataclass
class MessageAccountingReport:
    """Empirical-vs-analytic communication bits for one traced run."""

    scheduler: str
    n: int
    #: Iterations the protocol was configured to run per cycle.
    configured_iterations: int
    #: Scheduling cycles (slots) observed in the trace.
    slots: int
    #: Iteration rounds actually executed across all slots.
    iterations: int
    #: Bits counted from the event stream via Figure 10b field widths.
    empirical_bits: int
    #: Analytic model evaluated at the *observed* iteration counts.
    analytic_bits: int
    #: Analytic model at the configured fixed iteration count.
    configured_bits: int
    #: Bits that actually carried live payload (req/gnt/acc asserted).
    live_bits: int

    @property
    def mean_iterations(self) -> float:
        """Observed iteration rounds per scheduling cycle."""
        return self.iterations / self.slots if self.slots else math.nan

    @property
    def error(self) -> float:
        """Relative empirical-vs-analytic error (the consistency check)."""
        if not self.analytic_bits:
            return math.nan
        return abs(self.empirical_bits - self.analytic_bits) / self.analytic_bits

    @property
    def convergence_savings(self) -> float:
        """Fraction of the fixed-``i`` budget early convergence saved."""
        if not self.configured_bits:
            return math.nan
        return 1.0 - self.empirical_bits / self.configured_bits

    @property
    def live_utilization(self) -> float:
        """Fraction of driven wire bits carrying live payload."""
        return self.live_bits / self.empirical_bits if self.empirical_bits else math.nan

    def summary(self) -> str:
        return (
            f"message accounting [{self.scheduler} n={self.n}]: "
            f"{self.slots} cycles, {self.mean_iterations:.2f} iterations/cycle "
            f"(configured {self.configured_iterations})\n"
            f"  empirical {self.empirical_bits} bits vs analytic "
            f"{self.analytic_bits} bits -> error {self.error:.4%}\n"
            f"  fixed-i model charges {self.configured_bits} bits "
            f"({self.convergence_savings:.1%} saved by convergence); "
            f"live payload {self.live_utilization:.1%} of driven bits"
        )


class MessageAccountingProbe:
    """Accumulate Section 6.2 message bits from ``iteration`` events.

    Feed it a trace (event dicts, a :class:`~repro.obs.tracer.RingTracer`
    contents list, or a JSONL read-back) with :meth:`consume`, then
    :meth:`report`. Per executed iteration the hardware drives all
    ``n²`` pair wires with the Figure 10b fields — ``req + nrq`` toward
    the target, ``gnt + ngt + acc`` back — so the empirical charge per
    iteration is the field-width sum over ``n²`` pairs, computed from
    :func:`~repro.hw.comm.distributed_messages` (independent of the
    :func:`~repro.hw.comm.distributed_bits` closed form it is checked
    against). Live bits additionally weigh the ``requests`` / ``grants``
    / ``accepts`` counts each event carries.
    """

    def __init__(self, n: int, configured_iterations: int = 4):
        if configured_iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {configured_iterations}"
            )
        self.n = n
        self.configured_iterations = configured_iterations
        fields = distributed_messages(n)
        #: Bits one pair wire drives per iteration, both directions.
        self.pair_bits = sum(message.bits for message in fields.values())
        self._request_bits = fields["request"].bits
        self._grant_bits = fields["grant"].bits
        self._accept_bits = fields["accept"].bits
        self._iterations_per_slot: dict[int, int] = {}
        self.iterations = 0
        self.live_bits = 0

    def consume(self, events: Iterable[dict]) -> "MessageAccountingProbe":
        """Fold a stream of trace events into the accounting."""
        for event in events:
            if event.get("type") != ev.ITERATION:
                continue
            slot = event["slot"]
            self._iterations_per_slot[slot] = self._iterations_per_slot.get(slot, 0) + 1
            self.iterations += 1
            self.live_bits += (
                event.get("requests", 0) * self._request_bits
                + event["grants"] * self._grant_bits
                + event["accepts"] * self._accept_bits
            )
        return self

    @property
    def slots(self) -> int:
        return len(self._iterations_per_slot)

    def report(self, scheduler: str = "lcf_dist") -> MessageAccountingReport:
        # Empirical: every executed iteration drives all n² pair wires.
        empirical = self.iterations * self.n * self.n * self.pair_bits
        analytic = sum(
            distributed_bits(self.n, k)
            for k in self._iterations_per_slot.values()
            if k >= 1
        )
        configured = self.slots * distributed_bits(self.n, self.configured_iterations)
        return MessageAccountingReport(
            scheduler=scheduler,
            n=self.n,
            configured_iterations=self.configured_iterations,
            slots=self.slots,
            iterations=self.iterations,
            empirical_bits=empirical,
            analytic_bits=analytic,
            configured_bits=configured,
            live_bits=self.live_bits,
        )


# ---------------------------------------------------------------------------
# Section 5 fairness: rr_override events vs per-pair service at load ~ 1.0
# ---------------------------------------------------------------------------


@dataclass
class FairnessReport:
    """RR-overlay fairness check for one saturated run."""

    scheduler: str
    n: int
    #: Measured slots the service counts cover.
    slots: int
    #: Guaranteed service slots per pair per n² cycles (the paper's b).
    b: int
    #: Minimum per-pair service rate across pairs with any demand.
    min_rate: float
    #: The paper's lower bound b/n².
    bound: float
    #: Pairs served strictly less often than the bound allows.
    starved_pairs: list[tuple[int, int]] = field(default_factory=list)
    #: Pearson correlation between per-pair override and service counts.
    override_service_correlation: float = math.nan
    #: Total rr_override events seen in the trace.
    overrides: int = 0
    #: Jain fairness index of the per-pair service rates.
    jain: float = math.nan

    @property
    def bound_holds(self) -> bool:
        """Did every demanded pair meet the b/n² service floor?"""
        return not self.starved_pairs

    def summary(self) -> str:
        status = "holds" if self.bound_holds else (
            f"VIOLATED for {len(self.starved_pairs)} pairs"
        )
        return (
            f"fairness [{self.scheduler} n={self.n}, {self.slots} slots]: "
            f"min pair rate {self.min_rate:.5f} vs bound b/n^2 = "
            f"{self.bound:.5f} -> {status}\n"
            f"  {self.overrides} rr_override events; "
            f"override-service correlation {self.override_service_correlation:+.3f}; "
            f"jain {self.jain:.3f}"
        )


class FairnessProbe:
    """Correlate ``rr_override`` events with per-pair service counts.

    At load ≈ 1.0 every VOQ stays backlogged, so the Section 5 overlay
    guarantee — the round-robin position is matched before LCF
    scheduling and visits each of the ``n²`` positions once per ``n²``
    cycles — lower-bounds every pair's service rate at ``b/n²``. The
    probe checks that bound against the switch's
    :class:`~repro.sim.metrics.ServiceMatrix` counts and reports how
    strongly the overrides explain the service a pair received (for a
    starvation-prone scheduler the overlay *is* the floor, so the
    correlation is the paper's mechanism made visible).
    """

    def __init__(self, n: int, b: int = 1):
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        self.n = n
        self.b = b
        self.override_counts = np.zeros((n, n), dtype=np.int64)
        self.overrides = 0

    def consume(self, events: Iterable[dict]) -> "FairnessProbe":
        for event in events:
            if event.get("type") != ev.RR_OVERRIDE:
                continue
            self.override_counts[event["input"], event["output"]] += 1
            self.overrides += 1
        return self

    def report(
        self,
        service_counts: np.ndarray,
        slots: int,
        scheduler: str = "lcf_dist_rr",
        demanded: np.ndarray | None = None,
        tolerance: float = 0.5,
    ) -> FairnessReport:
        """Score the bound against measured service counts.

        ``demanded`` masks the pairs that had traffic to send (default:
        every pair, the uniform-load assumption). ``tolerance`` scales
        the bound to absorb warmup truncation — the guarantee is exact
        only over whole ``n²``-cycle sweeps.
        """
        if service_counts.shape != (self.n, self.n):
            raise ValueError(
                f"service counts are {service_counts.shape}, expected "
                f"({self.n}, {self.n})"
            )
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        rates = service_counts / slots
        mask = (
            np.ones_like(rates, dtype=bool) if demanded is None else demanded.astype(bool)
        )
        bound = self.b / (self.n * self.n)
        floor = bound * tolerance
        starved = [
            (int(i), int(j))
            for i, j in zip(*np.nonzero(mask & (rates < floor)))
        ]
        masked_rates = rates[mask]
        correlation = math.nan
        overrides = self.override_counts[mask].astype(np.float64)
        if masked_rates.size > 1 and overrides.std() > 0 and masked_rates.std() > 0:
            correlation = float(np.corrcoef(overrides, masked_rates)[0, 1])
        jain = math.nan
        if masked_rates.size and masked_rates.sum() > 0:
            jain = float(
                masked_rates.sum() ** 2
                / (masked_rates.size * (masked_rates**2).sum())
            )
        return FairnessReport(
            scheduler=scheduler,
            n=self.n,
            slots=slots,
            b=self.b,
            min_rate=float(masked_rates.min()) if masked_rates.size else math.nan,
            bound=bound,
            starved_pairs=starved,
            override_service_correlation=correlation,
            overrides=self.overrides,
            jain=jain,
        )


# ---------------------------------------------------------------------------
# Figure 12 grid: matching efficiency vs load dashboard
# ---------------------------------------------------------------------------


@dataclass
class DashboardRow:
    """One (scheduler, load) cell of the matching-quality dashboard."""

    scheduler: str
    load: float
    efficiency: float
    mean_matching: float
    mean_maximum: float
    mean_latency: float
    throughput: float

    def row(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "load": self.load,
            "efficiency": self.efficiency,
            "mean_matching": self.mean_matching,
            "mean_maximum": self.mean_maximum,
            "mean_latency": self.mean_latency,
            "throughput": self.throughput,
        }


def _probe_efficiency(
    config, scheduler_name: str, load: float, slots: int
) -> tuple[float, float, float]:
    """(efficiency, mean matching, mean maximum) for one probed run.

    ``fifo`` / ``outbuf`` run dedicated switch models with no crossbar
    matching, and the weighted schedulers match on weights rather than
    request matrices — those cells come back NaN rather than refusing
    the whole grid.
    """
    from repro.baselines.registry import SPECIAL_SWITCH_NAMES
    from repro.sim.crossbar import InputQueuedSwitch
    from repro.sim.simulator import _drive, make_crossbar_scheduler
    from repro.traffic.base import make_traffic

    if scheduler_name in SPECIAL_SWITCH_NAMES:
        return math.nan, math.nan, math.nan
    scheduler = make_crossbar_scheduler(
        scheduler_name, config.n_ports, iterations=config.iterations, seed=config.seed
    )
    if getattr(scheduler, "weight_kind", None) is not None:
        return math.nan, math.nan, math.nan
    probe = MatchingQualityProbe(scheduler)
    switch = InputQueuedSwitch(config, probe)
    pattern = make_traffic("bernoulli", config.n_ports, load, seed=config.seed)
    _drive(config, switch, pattern, None, stop_slot=slots)
    return probe.efficiency, probe.mean_matching, probe.mean_maximum


def run_matching_dashboard(
    config,
    schedulers: tuple[str, ...],
    loads: tuple[float, ...],
    cache=None,
    probe_slots: int = 400,
    progress=False,
):
    """Compute the matching-efficiency-vs-load grid.

    Latency/throughput columns come from the cached Figure 12 sweep
    (:func:`repro.analysis.sweep.run_sweep` through the parallel engine
    — re-runs hit the :class:`~repro.sweep.cache.ResultCache`);
    efficiency comes from dedicated
    :class:`~repro.obs.probe.MatchingQualityProbe` runs of
    ``probe_slots`` slots per cell (the probe wraps the scheduler, so
    it cannot ride inside the sweep workers). Returns
    ``(rows, sweep_report)`` — the rows in grid order plus the sweep
    engine's :class:`~repro.sweep.runner.SweepRunReport`.
    """
    from repro.analysis.sweep import run_sweep
    from repro.sweep.spec import SweepSpec

    sweep = run_sweep(
        SweepSpec(schedulers=schedulers, loads=loads, config=config),
        cache=cache,
        progress=progress,
    )
    rows: list[DashboardRow] = []
    for name in schedulers:
        for load in loads:
            efficiency, achieved, maximum = _probe_efficiency(
                config, name, load, probe_slots
            )
            point = sweep.get(name, load)
            rows.append(
                DashboardRow(
                    scheduler=name,
                    load=load,
                    efficiency=efficiency,
                    mean_matching=achieved,
                    mean_maximum=maximum,
                    mean_latency=point.mean_latency,
                    throughput=point.throughput,
                )
            )
    return rows, sweep.report


def write_dashboard_csv(rows: list[DashboardRow], path: str | Path) -> Path:
    """Write the dashboard grid as CSV (atomically)."""
    from repro.analysis.tables import rows_to_csv

    return atomic_write_text(path, rows_to_csv([row.row() for row in rows]))


def dashboard_ascii(rows: list[DashboardRow], width: int = 72, height: int = 20) -> str:
    """ASCII fallback rendering of efficiency vs load (per scheduler)."""
    from repro.analysis.asciiplot import ascii_plot

    series: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        loads, values = series.setdefault(row.scheduler, ([], []))
        loads.append(row.load)
        values.append(row.efficiency)
    return ascii_plot(
        series,
        title="Matching efficiency vs load (achieved / Hopcroft-Karp maximum)",
        x_label="load",
        y_label="efficiency",
        y_min=0.5,
        y_max=1.0,
        width=width,
        height=height,
    )


def write_dashboard_plot(rows: list[DashboardRow], path: str | Path) -> Path | None:
    """Write the efficiency-vs-load plot as PNG via matplotlib.

    Returns ``None`` (after printing nothing, raising nothing) when
    matplotlib is not installed — callers fall back to
    :func:`dashboard_ascii`. The toolchain deliberately has no hard
    plotting dependency.
    """
    try:
        import matplotlib
    except ImportError:
        return None
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    series: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        loads, values = series.setdefault(row.scheduler, ([], []))
        loads.append(row.load)
        values.append(row.efficiency)
    fig, (top, bottom) = plt.subplots(2, 1, figsize=(8, 8), sharex=True)
    for name, (loads, values) in series.items():
        top.plot(loads, values, marker="o", label=name)
    top.set_ylabel("matching efficiency")
    top.set_title("Matching efficiency vs load (Figure 12 grid)")
    top.legend()
    top.grid(True, alpha=0.3)
    latency: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        loads, values = latency.setdefault(row.scheduler, ([], []))
        loads.append(row.load)
        values.append(row.mean_latency)
    for name, (loads, values) in latency.items():
        bottom.plot(loads, values, marker="o", label=name)
    bottom.set_xlabel("load")
    bottom.set_ylabel("mean latency [slots]")
    bottom.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return Path(path)
