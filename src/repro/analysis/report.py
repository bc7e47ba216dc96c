"""One-command reproduction report.

``lcf-report`` (or :func:`generate_report`) runs every experiment in
DESIGN.md's index at a chosen fidelity and writes a self-contained
Markdown report: the Figure 12 tables and shape checks, Tables 1–2, the
Section 6.2 comparison, the fairness probes, and the VOQ-leveling
measurement — the machine-generated counterpart of EXPERIMENTS.md.

``lcf-report --dashboard`` runs the matching-efficiency-vs-load
dashboard instead (:func:`repro.obs.analytics.run_matching_dashboard`):
achieved/maximum matching per (scheduler, load) cell of the Figure 12
grid, joined with the cached sweep's latency/throughput columns, as
CSV + a plot (matplotlib when installed, ASCII otherwise).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

from repro import cli
from repro.analysis.fairness import starvation_report
from repro.analysis.sweep import SweepSpec, check_paper_shape, run_sweep, shape_report
from repro.analysis.tables import format_table
from repro.analysis.throughput import saturation_table
from repro.analysis.voq_dynamics import measure_voq_dynamics
from repro.baselines.registry import PAPER_SCHEDULERS, make_scheduler
from repro.hw.comm import comm_table
from repro.hw.cost import table1
from repro.hw.timing import table2
from repro.sim.config import SimConfig

#: Fidelity presets: (loads, warmup, measure).
FIDELITIES = {
    "smoke": ((0.6, 0.9), 200, 1000),
    "quick": ((0.3, 0.6, 0.8, 0.9, 0.95, 1.0), 500, 3000),
    "full": (tuple(round(0.05 * k, 2) for k in range(1, 21)), 2000, 20000),
}


def generate_report(fidelity: str = "quick", n_ports: int = 16, seed: int = 1) -> str:
    """Run the experiment battery and return the Markdown report."""
    if fidelity not in FIDELITIES:
        raise ValueError(f"fidelity must be one of {sorted(FIDELITIES)}")
    loads, warmup, measure = FIDELITIES[fidelity]
    config = SimConfig(
        n_ports=n_ports, warmup_slots=warmup, measure_slots=measure, seed=seed
    )
    started = time.time()
    sections: list[str] = [
        "# LCF reproduction report",
        "",
        f"fidelity: **{fidelity}** — {n_ports} ports, loads {list(loads)}, "
        f"{measure} measured slots, seed {seed}",
        "",
    ]

    # --- Figure 12 ---------------------------------------------------------
    sweep = run_sweep(SweepSpec(schedulers=PAPER_SCHEDULERS, loads=loads, config=config))
    sections += [
        "## Figure 12a — mean queueing delay vs load",
        "",
        "```",
        format_table(
            sweep.rows(),
            columns=["scheduler", "load", "mean_latency", "throughput", "dropped"],
        ),
        "```",
        "",
        "## Section 6.3 shape checks",
        "",
        "```",
        shape_report(check_paper_shape(sweep)),
        "```",
        "",
    ]

    # --- Tables 1 and 2 ------------------------------------------------------
    sections += [
        "## Table 1 — gate/register counts",
        "",
        "```",
        format_table(table1(16)),
        "```",
        "",
        "## Table 2 — scheduling tasks",
        "",
        "```",
        format_table(
            [
                {
                    "task": r.task,
                    "decomposition": r.decomposition,
                    "cycles": r.cycles,
                    "time [ns]": r.time_ns,
                }
                for r in table2(16)
            ]
        ),
        "```",
        "",
        "## Section 6.2 — communication cost (i = 4)",
        "",
        "```",
        format_table(comm_table(port_counts=(4, 16, 64, 256), iterations=4)),
        "```",
        "",
    ]

    # --- fairness ------------------------------------------------------------
    fairness_rows = []
    for name in ("lcf_central", "lcf_central_rr", "lcf_dist_rr", "islip"):
        probe = starvation_report(make_scheduler(name, n_ports))
        fairness_rows.append(
            {
                "scheduler": name,
                "min_rate": round(probe.min_rate, 5),
                "bound(1/n^2)": round(1 / n_ports**2, 5),
                "starved": len(probe.starved_pairs),
                "jain": round(probe.jain, 3),
            }
        )
    sections += [
        f"## Fairness under saturation ({n_ports * n_ports} cycles)",
        "",
        "```",
        format_table(fairness_rows),
        "```",
        "",
    ]

    # --- leveling conjecture ---------------------------------------------------
    leveling_rows = []
    for name in ("lcf_central", "lcf_central_rr"):
        d = measure_voq_dynamics(config, name, 0.95)
        leveling_rows.append(
            {
                "scheduler": name,
                "occupancy_cv": round(d.occupancy_cv, 3),
                "drained_frac": round(d.drained_fraction, 3),
                "mean_choice": round(d.mean_choice, 2),
                "latency@0.95": round(d.mean_latency, 2),
            }
        )
    sections += [
        "## Section 6.3 VOQ-leveling conjecture (load 0.95)",
        "",
        "```",
        format_table(leveling_rows),
        "```",
        "",
    ]

    # --- saturation ------------------------------------------------------------
    saturation_config = config.with_(voq_capacity=64, pq_capacity=64)
    sections += [
        "## Saturation throughput (load 1.0)",
        "",
        "```",
        format_table(
            saturation_table(
                ("lcf_central", "islip", "wfront", "fifo", "outbuf"),
                saturation_config,
            )
        ),
        "```",
        "",
        f"_generated in {time.time() - started:.1f}s_",
        "",
    ]
    return "\n".join(sections)


#: Crossbar schedulers the dashboard probes by default (fifo/outbuf run
#: dedicated switch models with no crossbar matching to score).
DASHBOARD_SCHEDULERS = (
    "lcf_central",
    "lcf_central_rr",
    "lcf_dist",
    "lcf_dist_rr",
    "pim",
    "islip",
    "wfront",
)


def run_dashboard(args) -> int:
    """The ``--dashboard`` mode: matching efficiency across the grid."""
    from repro.obs.analytics import (
        dashboard_ascii,
        run_matching_dashboard,
        write_dashboard_csv,
        write_dashboard_plot,
    )

    loads, warmup, measure = FIDELITIES[args.fidelity]
    if args.loads:
        loads = tuple(float(x) for x in args.loads.split(","))
    config = SimConfig(
        n_ports=args.ports, warmup_slots=warmup, measure_slots=measure,
        seed=args.seed,
    )
    schedulers = (
        tuple(args.schedulers.split(",")) if args.schedulers
        else DASHBOARD_SCHEDULERS
    )
    rows, sweep_report = run_matching_dashboard(
        config,
        schedulers,
        loads,
        cache=args.cache_dir,
        probe_slots=args.probe_slots,
    )
    if args.csv:
        print(f"wrote {write_dashboard_csv(rows, args.csv)}")
    if args.png:
        written = write_dashboard_plot(rows, args.png)
        if written is not None:
            print(f"wrote {written}")
        else:
            print("matplotlib not installed; ASCII fallback:")
            print(dashboard_ascii(rows))
    if not args.csv and not args.png:
        print(dashboard_ascii(rows))
    cached = sweep_report.cache_hits if sweep_report is not None else 0
    print(
        f"{len(rows)} grid cells ({len(schedulers)} schedulers x "
        f"{len(loads)} loads), {cached} sweep points from cache"
    )
    return 0


def build(args: argparse.Namespace):
    """Judge the invocation and return the report or dashboard it names."""
    cli.check_options(args)
    if args.probe_slots < 1:
        raise ValueError(f"--probe-slots must be >= 1, got {args.probe_slots}")
    if args.schedulers:
        cli.check_schedulers(
            "--schedulers", args.schedulers.split(","), also=("outbuf",)
        )
    for part in args.loads.split(",") if args.loads else ():
        try:
            load = float(part)
        except ValueError:
            raise ValueError(f"--loads: {part!r} is not a number") from None
        if not 0.0 < load <= 1.0:
            raise ValueError(f"--loads: load {load} outside (0, 1]")
    if args.dashboard:
        return partial(run_dashboard, args)
    return partial(_write_report, args)


def _write_report(args: argparse.Namespace) -> int:
    report = generate_report(args.fidelity, args.ports, args.seed)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lcf-report",
        description="Generate the full reproduction report (Markdown).",
    )
    parser.add_argument("--fidelity", choices=sorted(FIDELITIES), default="quick")
    parser.add_argument("--ports", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write to a file instead of stdout")
    parser.add_argument("--dashboard", action="store_true",
                        help="emit the matching-efficiency-vs-load dashboard "
                             "instead of the Markdown report")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="sweep result cache directory (dashboard mode)")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write the dashboard grid as CSV")
    parser.add_argument("--png", metavar="PATH", default=None,
                        help="write the dashboard plot as PNG (needs "
                             "matplotlib; falls back to ASCII)")
    parser.add_argument("--schedulers", metavar="A,B,...", default=None,
                        help="comma-separated scheduler subset (dashboard)")
    parser.add_argument("--loads", metavar="0.6,0.9,...", default=None,
                        help="comma-separated load override (dashboard)")
    parser.add_argument("--probe-slots", type=int, default=400,
                        help="slots per matching-quality probe run")
    return cli.run_main(parser, build, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
