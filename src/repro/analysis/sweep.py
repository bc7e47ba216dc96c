"""The Figure 12 load-sweep harness (presentation layer).

Runs a grid of (scheduler, load) simulation points through the
:mod:`repro.sweep` engine — optionally over parallel worker processes,
replicated seeds, and an on-disk result cache — and post-processes the
results into the two paper plots: absolute queueing delay versus load
(Figure 12a) and delay relative to the output-buffered switch
(Figure 12b).

:func:`check_paper_shape` encodes the qualitative claims of Section 6.3
as machine-checkable assertions — the reproduction's acceptance
criteria. Absolute delays depend on simulator details the paper does
not specify (measurement conventions, run lengths); the *orderings and
crossovers* are what must hold.

``SweepSpec`` and ``PAPER_LOADS`` are re-exported from
:mod:`repro.sweep.spec`, where they now live; existing imports keep
working.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.asciiplot import ascii_plot
from repro.analysis.tables import rows_to_csv
from repro.sim.simulator import SimResult
from repro.sweep.cache import ResultCache
from repro.sweep.runner import ParallelRunner, SweepRunReport
from repro.sweep.spec import PAPER_LOADS, SweepSpec

__all__ = [
    "PAPER_LOADS",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "check_paper_shape",
    "shape_report",
    "ShapeCheck",
]


@dataclass
class SweepResult:
    """Results of a sweep, indexed by (scheduler, load).

    With ``replicates > 1`` each entry is the shard-merged statistic
    (see :func:`repro.sweep.merge.merge_results`); with one replicate
    it is the plain per-point :class:`SimResult`.
    """

    spec: SweepSpec
    results: dict[tuple[str, float], SimResult]
    #: Timing/caching report of the run that produced these results
    #: (``None`` for hand-built instances).
    report: SweepRunReport | None = None

    def get(self, scheduler: str, load: float) -> SimResult:
        return self.results[(scheduler, load)]

    def series(self, scheduler: str) -> tuple[list[float], list[float]]:
        """(loads, mean latencies) for one scheduler — a Figure 12a curve."""
        loads = list(self.spec.loads)
        return loads, [self.results[(scheduler, load)].mean_latency for load in loads]

    def relative_series(
        self, scheduler: str, reference: str = "outbuf"
    ) -> tuple[list[float], list[float]]:
        """(loads, latency ratios to the reference) — a Figure 12b curve.

        Points whose ratio is NaN — a zero/NaN reference latency, e.g.
        from a warmup-only or saturated reference run — are dropped
        rather than plotted: the ASCII plot clips non-finite values to
        the top row, which would misread as saturation.
        """
        loads: list[float] = []
        ratios: list[float] = []
        for load in self.spec.loads:
            ref = self.results[(reference, load)]
            ratio = self.results[(scheduler, load)].relative_to(ref)
            if math.isfinite(ratio):
                loads.append(load)
                ratios.append(ratio)
        return loads, ratios

    def rows(self) -> list[dict]:
        """Flat rows (one per point) for CSV / tables."""
        return [
            self.results[(name, load)].row()
            for name in self.spec.schedulers
            for load in self.spec.loads
        ]

    def to_csv(self) -> str:
        return rows_to_csv(self.rows())

    def plot(self, relative: bool = False, y_max: float | None = None, **kwargs) -> str:
        """ASCII rendering of Figure 12a (or 12b with ``relative=True``)."""
        series = {}
        for name in self.spec.schedulers:
            if relative:
                if name == "outbuf":
                    continue
                series[name] = self.relative_series(name)
            else:
                series[name] = self.series(name)
        default_y = 3.0 if relative else 25.0
        return ascii_plot(
            series,
            title=(
                "Figure 12b: latency relative to outbuf"
                if relative
                else "Figure 12a: mean queueing delay vs load"
            ),
            x_label="load",
            y_label="relative latency" if relative else "latency [packet slots]",
            y_max=y_max if y_max is not None else default_y,
            y_min=1.0 if relative else 0.0,
            **kwargs,
        )


def run_sweep(
    spec: SweepSpec,
    processes: int = 1,
    progress: bool = False,
    cache: ResultCache | str | Path | None = None,
    profile_dir: str | Path | None = None,
) -> SweepResult:
    """Execute every point of the sweep grid via the parallel engine.

    ``processes > 1`` fans the points out over a multiprocessing pool —
    each point is independent, so this scales linearly on real
    multi-core hosts. ``processes=1`` runs serially in grid order and
    is bit-identical to the historical sequential loop. ``cache`` (a
    directory path or :class:`ResultCache`) makes the sweep resumable:
    completed points are stored as they finish and reused on re-runs.
    ``profile_dir`` dumps one cProfile stats file per computed point.
    How each point runs (bitset kernels, replicate blocks batched on the
    :mod:`repro.columnar` engine) is chosen by the engine and never
    changes a result or a cache key.
    """
    run = ParallelRunner(
        workers=processes,
        cache=cache,
        progress=progress,
        profile_dir=profile_dir,
    ).run(spec)
    return SweepResult(spec, dict(run.merged), report=run.report)


@dataclass
class ShapeCheck:
    """One qualitative claim from Section 6.3 and whether it held."""

    claim: str
    passed: bool
    detail: str


def _nearest(loads: tuple[float, ...], target: float) -> float:
    return min(loads, key=lambda x: abs(x - target))


def check_paper_shape(sweep: SweepResult) -> list[ShapeCheck]:
    """Evaluate the Section 6.3 qualitative claims against a sweep.

    Requires the sweep to contain the paper's scheduler set; claims
    referencing missing schedulers are skipped.
    """
    loads = sweep.spec.loads
    present = set(sweep.spec.schedulers)
    checks: list[ShapeCheck] = []

    def latency(name: str, load: float) -> float:
        return sweep.get(name, _nearest(loads, load)).mean_latency

    def add(claim: str, needed: set[str], predicate, detail_fn) -> None:
        if not needed <= present:
            return
        try:
            passed = bool(predicate())
            detail = detail_fn()
        except Exception as exc:  # pragma: no cover - defensive
            passed, detail = False, f"error: {exc}"
        checks.append(ShapeCheck(claim, passed, detail))

    mid, high = 0.6, 0.9

    add(
        "fifo has the worst latency at moderate load (HOL blocking)",
        {"fifo", "lcf_central", "islip", "pim", "wfront"},
        lambda: latency("fifo", mid)
        > max(latency(s, mid) for s in ("lcf_central", "islip", "pim", "wfront")),
        lambda: f"fifo={latency('fifo', mid):.2f} at load {mid}",
    )
    add(
        "outbuf is the lower envelope at high load",
        {"outbuf", "lcf_central", "islip", "pim", "wfront", "fifo"},
        lambda: latency("outbuf", high)
        <= min(
            latency(s, high)
            for s in ("lcf_central", "islip", "pim", "wfront", "fifo")
        )
        + 1e-9,
        lambda: f"outbuf={latency('outbuf', high):.2f} at load {high}",
    )
    add(
        "lcf_central beats the non-LCF crossbar schedulers at high load",
        {"lcf_central", "lcf_dist", "pim", "islip", "wfront"},
        # The paper's claim: lcf_central "performs significantly better
        # than any other scheduler examined"; its own RR variant crosses
        # below it above load 0.9, so it is excluded here.
        lambda: latency("lcf_central", high)
        <= min(latency(s, high) for s in ("lcf_dist", "pim", "islip", "wfront"))
        + 1e-9,
        lambda: f"lcf_central={latency('lcf_central', high):.2f} at load {high}",
    )
    add(
        "central LCF variants track each other at load 0.9 (crossover region)",
        {"lcf_central", "lcf_central_rr"},
        lambda: abs(latency("lcf_central_rr", high) - latency("lcf_central", high))
        <= 0.25 * latency("lcf_central", high),
        lambda: (
            f"lcf_central={latency('lcf_central', high):.2f} "
            f"lcf_central_rr={latency('lcf_central_rr', high):.2f} at load {high}"
        ),
    )
    add(
        "lcf_central is within ~1.4x of outbuf at high load",
        {"lcf_central", "outbuf"},
        lambda: latency("lcf_central", high) / latency("outbuf", high) < 2.0,
        lambda: (
            f"ratio={latency('lcf_central', high) / latency('outbuf', high):.2f} "
            f"at load {high} (paper: about 1.4)"
        ),
    )
    add(
        "lcf_dist tracks pim (distributed LCF ~ PIM class)",
        {"lcf_dist", "pim"},
        lambda: latency("lcf_dist", high) < 1.5 * latency("pim", high),
        lambda: (
            f"lcf_dist={latency('lcf_dist', high):.2f} "
            f"pim={latency('pim', high):.2f} at load {high}"
        ),
    )
    add(
        "lcf_dist beats islip at high load (paper: 'superior to iSLIP')",
        {"lcf_dist", "islip"},
        lambda: latency("lcf_dist", high) < latency("islip", high),
        lambda: (
            f"lcf_dist={latency('lcf_dist', high):.2f} "
            f"islip={latency('islip', high):.2f} at load {high}"
        ),
    )
    add(
        "islip and wfront are similar (both round-robin based)",
        {"islip", "wfront"},
        lambda: 0.5
        < latency("islip", high) / max(latency("wfront", high), 1e-9)
        < 2.0,
        lambda: (
            f"islip={latency('islip', high):.2f} "
            f"wfront={latency('wfront', high):.2f} at load {high}"
        ),
    )
    add(
        "rr variant costs little below load 0.9 (lcf_central_rr ~ lcf_central)",
        {"lcf_central", "lcf_central_rr"},
        lambda: latency("lcf_central_rr", 0.7) < 1.5 * latency("lcf_central", 0.7),
        lambda: (
            f"lcf_central_rr={latency('lcf_central_rr', 0.7):.2f} "
            f"lcf_central={latency('lcf_central', 0.7):.2f} at load 0.7"
        ),
    )
    add(
        "fifo saturates early: throughput well below 1 at full load",
        {"fifo"},
        lambda: sweep.get("fifo", _nearest(loads, 1.0)).throughput < 0.75,
        lambda: (
            f"fifo throughput={sweep.get('fifo', _nearest(loads, 1.0)).throughput:.3f} "
            f"at load {_nearest(loads, 1.0)}"
        ),
    )

    return checks


def shape_report(checks: list[ShapeCheck]) -> str:
    """Human-readable pass/fail summary."""
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"[{status}] {check.claim}\n        {check.detail}")
    passed = sum(c.passed for c in checks)
    lines.append(f"{passed}/{len(checks)} shape checks passed")
    return "\n".join(lines)
