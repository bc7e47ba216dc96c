"""Resilience harness: degradation curves through the sweep engine.

Answers the question the paper never asks: how gracefully does each
scheduler degrade when the control plane or the ports fail? Two axes:

* **message loss** — uniform per-message request/grant/accept loss
  probability (:meth:`repro.faults.FaultPlan.message_loss`), swept from
  0 upward. The distributed LCF schedulers play their lossy protocol;
  for every other scheduler the switch loses requests on their way in,
  so the whole registry gets a curve.
* **port availability** — duty-cycled port outages averaging a target
  availability (:meth:`repro.faults.FaultPlan.availability`), swept
  from 1.0 downward.

Every (scheduler, axis value) cell runs through
:class:`repro.sweep.runner.ParallelRunner` — parallel workers,
replicate merging, and the content-addressed result cache all apply.
A zero-fault axis point flattens to an *empty* fault spec, so it hashes
to the same cache key as a plain Figure 12 sweep point and reproduces
those numbers exactly (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.asciiplot import ascii_plot
from repro.analysis.tables import rows_to_csv
from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.simulator import SimResult
from repro.sweep.cache import ResultCache
from repro.sweep.runner import ParallelRunner, SweepRunReport
from repro.sweep.spec import SweepSpec

__all__ = [
    "ResilienceReport",
    "AdaptiveComparisonReport",
    "run_loss_sweep",
    "run_availability_sweep",
    "run_adaptive_sweep",
    "DEFAULT_LOSS_GRID",
    "DEFAULT_AVAILABILITY_GRID",
]

#: Default message-loss probabilities for the loss axis.
DEFAULT_LOSS_GRID = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
#: Default port availabilities for the availability axis.
DEFAULT_AVAILABILITY_GRID = (1.0, 0.99, 0.95, 0.9, 0.8)


@dataclass
class ResilienceReport:
    """Per-scheduler degradation curves along one fault axis."""

    #: ``"message_loss"`` or ``"availability"``.
    axis: str
    schedulers: tuple[str, ...]
    #: Axis values, in sweep order.
    values: tuple[float, ...]
    load: float
    #: Merged result per (scheduler, axis value) cell.
    results: dict[tuple[str, float], SimResult]
    #: The fault plan each axis value ran under (spec form).
    plans: dict[float, tuple] = field(default_factory=dict)
    #: One engine report per axis value, in sweep order.
    sweep_reports: list[SweepRunReport] = field(default_factory=list)

    @property
    def baseline_value(self) -> float:
        """The healthy end of the axis (0 loss / availability 1)."""
        return (
            min(self.values) if self.axis == "message_loss" else max(self.values)
        )

    def get(self, scheduler: str, value: float) -> SimResult:
        return self.results[(scheduler, value)]

    def series(
        self, scheduler: str, metric: str = "throughput"
    ) -> tuple[list[float], list[float]]:
        """(axis values, metric values) for one scheduler.

        ``metric``: ``throughput``, ``mean_latency``, or ``delivery``
        (forwarded/offered — the matching-efficiency proxy visible in
        end-to-end statistics). Non-finite points are dropped.
        """
        xs: list[float] = []
        ys: list[float] = []
        for value in self.values:
            result = self.results[(scheduler, value)]
            if metric == "delivery":
                y = result.forwarded / result.offered if result.offered else math.nan
            else:
                y = getattr(result, metric)
            if math.isfinite(y):
                xs.append(value)
                ys.append(y)
        return xs, ys

    def degradation(self, scheduler: str, value: float) -> float:
        """Throughput at ``value`` relative to the healthy baseline."""
        baseline = self.results[(scheduler, self.baseline_value)].throughput
        if not baseline or math.isnan(baseline):
            return math.nan
        return self.results[(scheduler, value)].throughput / baseline

    def rows(self) -> list[dict]:
        """Flat rows (one per cell) for CSV / JSON emission."""
        rows = []
        for name in self.schedulers:
            for value in self.values:
                result = self.results[(name, value)]
                rows.append(
                    result.row()
                    | {
                        self.axis: value,
                        "delivery": (
                            result.forwarded / result.offered
                            if result.offered
                            else math.nan
                        ),
                        "throughput_vs_baseline": self.degradation(name, value),
                    }
                )
        return rows

    def to_csv(self) -> str:
        return rows_to_csv(self.rows())

    def plot(self, metric: str = "throughput", **kwargs) -> str:
        """ASCII degradation curves, one line per scheduler."""
        series = {name: self.series(name, metric) for name in self.schedulers}
        axis_label = (
            "message loss probability"
            if self.axis == "message_loss"
            else "port availability"
        )
        y_max = kwargs.pop("y_max", None)
        if y_max is None:
            peaks = [max(ys) for _, ys in series.values() if ys]
            y_max = 1.05 * max(peaks) if peaks else 1.0
        return ascii_plot(
            series,
            title=f"{metric} vs {axis_label} (load {self.load:g})",
            x_label=axis_label,
            y_label=metric,
            y_min=0.0,
            y_max=y_max,
            **kwargs,
        )

    def summary(self) -> str:
        """Degradation table: worst axis value vs the healthy baseline."""
        worst = (
            max(self.values) if self.axis == "message_loss" else min(self.values)
        )
        lines = [
            f"resilience ({self.axis}, load {self.load:g}): "
            f"baseline {self.axis}={self.baseline_value:g}, "
            f"worst {self.axis}={worst:g}"
        ]
        for name in self.schedulers:
            healthy = self.results[(name, self.baseline_value)]
            hit = self.results[(name, worst)]
            lines.append(
                f"  {name:<16} throughput {healthy.throughput:.3f} -> "
                f"{hit.throughput:.3f} ({self.degradation(name, worst):6.1%}), "
                f"latency {healthy.mean_latency:7.2f} -> {hit.mean_latency:7.2f}"
            )
        return "\n".join(lines)


@dataclass
class AdaptiveComparisonReport:
    """Reactive vs oblivious degradation along the availability axis.

    Both stances are fault-*blind* (see :mod:`repro.adapt`): the
    oblivious baseline keeps wasting grants on dead crosspoints, the
    adaptive stance learns and steers around them. At the healthy end
    of the axis the two are bit-identical to a plain run (no faults →
    nothing to learn → no filtering), which the benchmark asserts.
    """

    schedulers: tuple[str, ...]
    #: Availability values, in sweep order.
    values: tuple[float, ...]
    load: float
    #: Merged result per (scheduler, availability), oblivious stance.
    oblivious: dict[tuple[str, float], SimResult]
    #: Merged result per (scheduler, availability), adaptive stance.
    adaptive: dict[tuple[str, float], SimResult]
    #: The adapter spec the adaptive stance ran under.
    adapt_spec: tuple = ()
    #: The fault plan each axis value ran under (spec form).
    plans: dict[float, tuple] = field(default_factory=dict)
    #: One engine report per (axis value, stance), in sweep order.
    sweep_reports: list[SweepRunReport] = field(default_factory=list)

    @property
    def baseline_value(self) -> float:
        return max(self.values)

    def recovered(self, scheduler: str, value: float) -> float:
        """Fraction of the oblivious throughput loss the adaptive stance
        wins back at one axis point (1.0 = fully recovered to the
        healthy baseline, 0.0 = no better than oblivious, negative =
        worse). NaN when the oblivious stance lost nothing."""
        healthy = self.oblivious[(scheduler, self.baseline_value)].throughput
        blind = self.oblivious[(scheduler, value)].throughput
        adapt = self.adaptive[(scheduler, value)].throughput
        lost = healthy - blind
        if not math.isfinite(lost) or lost <= 0:
            return math.nan
        return (adapt - blind) / lost

    def rows(self) -> list[dict]:
        """Flat rows (one per cell and stance) for CSV / JSON."""
        rows = []
        for name in self.schedulers:
            for value in self.values:
                for stance, results in (
                    ("oblivious", self.oblivious),
                    ("adaptive", self.adaptive),
                ):
                    result = results[(name, value)]
                    rows.append(
                        result.row()
                        | {
                            "availability": value,
                            "stance": stance,
                            "recovered": (
                                self.recovered(name, value)
                                if stance == "adaptive"
                                else math.nan
                            ),
                        }
                    )
        return rows

    def to_csv(self) -> str:
        return rows_to_csv(self.rows())

    def summary(self) -> str:
        """Per-scheduler table: blind vs adaptive at each degraded point."""
        lines = [
            f"adaptive vs oblivious (availability axis, load {self.load:g})"
        ]
        for name in self.schedulers:
            lines.append(f"  {name}")
            for value in self.values:
                blind = self.oblivious[(name, value)]
                adapt = self.adaptive[(name, value)]
                recovered = self.recovered(name, value)
                rec = f"{recovered:6.1%}" if math.isfinite(recovered) else "   n/a"
                lines.append(
                    f"    a={value:<5g} thr {blind.throughput:.3f} -> "
                    f"{adapt.throughput:.3f}  latency {blind.mean_latency:8.2f} -> "
                    f"{adapt.mean_latency:8.2f}  recovered {rec}"
                )
        return "\n".join(lines)


def _sweep_axis(
    axis: str,
    plans: dict[float, FaultPlan],
    schedulers: tuple[str, ...],
    load: float,
    config: SimConfig,
    traffic: str,
    replicates: int,
    processes: int,
    cache: ResultCache | str | Path | None,
    progress: bool,
) -> ResilienceReport:
    runner = ParallelRunner(workers=processes, cache=cache, progress=progress)
    results: dict[tuple[str, float], SimResult] = {}
    report = ResilienceReport(
        axis=axis,
        schedulers=tuple(schedulers),
        values=tuple(plans),
        load=load,
        results=results,
    )
    for value, plan in plans.items():
        spec = SweepSpec(
            schedulers=tuple(schedulers),
            loads=(load,),
            config=config,
            traffic=traffic,
            replicates=replicates,
            fault_kwargs=plan.to_spec(),
        )
        run = runner.run(spec)
        for name in schedulers:
            results[(name, value)] = run.merged[(name, load)]
        report.plans[value] = plan.to_spec()
        report.sweep_reports.append(run.report)
    return report


def run_loss_sweep(
    schedulers: tuple[str, ...],
    rates: tuple[float, ...] = DEFAULT_LOSS_GRID,
    load: float = 0.8,
    config: SimConfig | None = None,
    traffic: str = "bernoulli",
    replicates: int = 1,
    processes: int = 1,
    cache: ResultCache | str | Path | None = None,
    progress: bool = False,
) -> ResilienceReport:
    """Throughput/delay degradation versus control-message loss rate."""
    config = config if config is not None else SimConfig()
    plans = {rate: FaultPlan.message_loss(rate) for rate in rates}
    return _sweep_axis(
        "message_loss",
        plans,
        tuple(schedulers),
        load,
        config,
        traffic,
        replicates,
        processes,
        cache,
        progress,
    )


def run_availability_sweep(
    schedulers: tuple[str, ...],
    availabilities: tuple[float, ...] = DEFAULT_AVAILABILITY_GRID,
    load: float = 0.8,
    config: SimConfig | None = None,
    period: int = 400,
    traffic: str = "bernoulli",
    replicates: int = 1,
    processes: int = 1,
    cache: ResultCache | str | Path | None = None,
    progress: bool = False,
) -> ResilienceReport:
    """Throughput/delay degradation versus mean port availability."""
    config = config if config is not None else SimConfig()
    plans = {
        availability: FaultPlan.availability(
            config.n_ports, availability, period=period
        )
        for availability in availabilities
    }
    return _sweep_axis(
        "availability",
        plans,
        tuple(schedulers),
        load,
        config,
        traffic,
        replicates,
        processes,
        cache,
        progress,
    )


#: The oblivious (fault-blind, non-reactive) stance spec.
OBLIVIOUS_SPEC = (("policy", "oblivious"),)


def run_adaptive_sweep(
    schedulers: tuple[str, ...],
    availabilities: tuple[float, ...] = DEFAULT_AVAILABILITY_GRID,
    load: float = 0.8,
    config: SimConfig | None = None,
    period: int = 400,
    adapt=None,
    traffic: str = "bernoulli",
    replicates: int = 1,
    processes: int = 1,
    cache: ResultCache | str | Path | None = None,
    progress: bool = False,
) -> AdaptiveComparisonReport:
    """Reactive vs oblivious degradation curves (availability axis).

    Runs every (scheduler, availability) cell twice — once under the
    oblivious fault-blind stance, once under the adaptive stance given
    by ``adapt`` (an :class:`repro.adapt.AdaptConfig`, its spec form,
    or ``None`` for defaults) — all through the cached parallel sweep
    engine, so repeated comparisons are cache reads.

    The adaptive stance only reacts to *topology* faults (dead
    crosspoints it can observe through wasted grants), so the
    availability axis is the meaningful one; message loss degrades the
    control plane inside the schedulers where the fabric gate — the
    adapter's evidence source — never fires.
    """
    from repro.adapt.config import AdaptConfig

    config = config if config is not None else SimConfig()
    if adapt is None:
        adapt_spec = AdaptConfig().to_spec()
    elif isinstance(adapt, AdaptConfig):
        adapt_spec = adapt.to_spec()
    else:
        adapt_spec = tuple(sorted(dict(adapt).items()))
    # Judge the whole grid before the runner creates its cache.
    plans = [
        (value, FaultPlan.availability(config.n_ports, value, period=period))
        for value in availabilities
    ]
    runner = ParallelRunner(workers=processes, cache=cache, progress=progress)
    report = AdaptiveComparisonReport(
        schedulers=tuple(schedulers),
        values=tuple(availabilities),
        load=load,
        oblivious={},
        adaptive={},
        adapt_spec=adapt_spec,
    )
    for availability, plan in plans:
        for stance_spec, results in (
            (OBLIVIOUS_SPEC, report.oblivious),
            (adapt_spec, report.adaptive),
        ):
            spec = SweepSpec(
                schedulers=tuple(schedulers),
                loads=(load,),
                config=config,
                traffic=traffic,
                replicates=replicates,
                fault_kwargs=plan.to_spec(),
                adapt_kwargs=stance_spec,
            )
            run = runner.run(spec)
            for name in schedulers:
                results[(name, availability)] = run.merged[(name, load)]
            report.sweep_reports.append(run.report)
        report.plans[availability] = plan.to_spec()
    return report
