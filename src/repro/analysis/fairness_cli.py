"""``lcf-fairness`` — starvation and service-guarantee probe.

Drives a scheduler with a static saturated backlog for (by default)
``n^2`` cycles and reports per-pair service: minimum rate, Jain index,
starved pairs, and an ASCII heatmap of the service matrix.

Examples::

    lcf-fairness --scheduler lcf_central_rr --ports 16
    lcf-fairness --scheduler lcf_central --ports 8 --adversarial
    lcf-fairness --all --ports 8
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from repro import cli
from repro.analysis.fairness import (
    adversarial_two_flow_matrix,
    starvation_report,
)
from repro.analysis.heatmap import service_heatmap
from repro.analysis.tables import format_table
from repro.baselines.registry import available_schedulers, make_scheduler

DEFAULT_SET = ("lcf_central", "lcf_central_rr", "lcf_dist", "lcf_dist_rr",
               "pim", "islip", "wfront")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-fairness",
        description="Service-guarantee probe for crossbar schedulers "
        "(the b/n^2 bound of Gura & Eberle, Section 3).",
    )
    parser.add_argument("--scheduler", default="lcf_central_rr",
                        help=f"one of: {', '.join(available_schedulers())}")
    parser.add_argument("--all", action="store_true",
                        help="probe the whole paper scheduler set")
    parser.add_argument("--ports", type=int, default=16)
    parser.add_argument("--cycles", type=int, default=None,
                        help="default n^2 (one full RR period)")
    parser.add_argument("--adversarial", action="store_true",
                        help="use the crafted starvation pattern instead "
                             "of a full backlog")
    parser.add_argument("--heatmap", action="store_true",
                        help="print the per-pair service heatmap")
    return parser


def probe(name: str, n: int, cycles: int | None, adversarial: bool):
    scheduler = make_scheduler(name, n)
    requests = adversarial_two_flow_matrix(n) if adversarial else None
    return starvation_report(scheduler, cycles=cycles, requests=requests)


def build(args: argparse.Namespace):
    """Judge the invocation; bad input exits 2 (1 means "a pair starved")."""
    if not args.all:
        cli.check_schedulers(
            "--scheduler", (args.scheduler,),
            refuse="with no request-matrix interface; pick a VOQ scheduler",
        )
    cli.check_options(args)
    if args.adversarial and args.ports < 3:
        raise ValueError(f"--adversarial needs --ports >= 3, got {args.ports}")
    if args.cycles is not None and args.cycles < 1:
        raise ValueError(f"--cycles must be >= 1, got {args.cycles}")
    return partial(_probe_all, args)


def _probe_all(args: argparse.Namespace) -> int:
    names = DEFAULT_SET if args.all else (args.scheduler,)

    rows = []
    reports = {}
    for name in names:
        report = probe(name, args.ports, args.cycles, args.adversarial)
        reports[name] = report
        rows.append(
            {
                "scheduler": name,
                "cycles": report.cycles,
                "min_rate": round(report.min_rate, 5),
                "bound(1/n^2)": round(1 / (args.ports**2), 5),
                "starved": len(report.starved_pairs),
                "jain": round(report.jain, 3),
            }
        )
    print(format_table(rows))

    if args.heatmap:
        for name in names:
            print()
            print(service_heatmap(reports[name].counts, reports[name].cycles,
                                  title=f"{name}: per-pair grants"))

    # Exit status communicates the guarantee: 0 iff nothing starved.
    return 0 if all(not r.starved_pairs for r in reports.values()) else 1


def main(argv: list[str] | None = None) -> int:
    return cli.run_main(build_parser(), build, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
