"""``lcf-hw`` — hardware model report from the command line.

Prints Table 1 (gate/register counts), Table 2 (cycle counts and
times), and the Section 6.2 communication/speed comparison for any port
count, optionally cross-checking the register-level model.

Examples::

    lcf-hw                      # the paper's n=16 tables
    lcf-hw --ports 64           # the model scaled up
    lcf-hw --verify-rtl         # run the RTL equivalence cross-check
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from repro import cli
from repro.analysis.tables import format_table
from repro.hw.comm import comm_table
from repro.hw.cost import fpga_utilisation, table1
from repro.hw.timing import (
    central_time_steps,
    distributed_time_steps,
    timing_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-hw",
        description="Cost/timing/communication models of the LCF scheduler "
        "hardware (Tables 1-2 and Section 6.2 of Gura & Eberle).",
    )
    parser.add_argument("--ports", type=int, default=16)
    parser.add_argument("--clock-mhz", type=float, default=66.0)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--verify-rtl", action="store_true",
                        help="cross-check the register-level model against "
                             "the behavioural scheduler")
    parser.add_argument("--rtl-cycles", type=int, default=100,
                        help="random cycles for --verify-rtl")
    return parser


def build(args: argparse.Namespace):
    """Judge the invocation; bad input exits 2 (1 means "RTL mismatch")."""
    cli.check_options(args)
    if not (args.clock_mhz > 0 and math.isfinite(args.clock_mhz)):
        raise ValueError(
            f"--clock-mhz must be a finite number > 0, got {args.clock_mhz:g}"
        )
    if args.rtl_cycles < 1:
        raise ValueError(f"--rtl-cycles must be >= 1, got {args.rtl_cycles}")
    return partial(_report, args)


def _report(args: argparse.Namespace) -> int:
    n = args.ports

    print(f"Table 1 — gate/register counts (n={n}):")
    print(format_table(table1(n)))
    if n == 16:
        print(f"estimated XCV600 utilisation: {fpga_utilisation(n):.0%} (paper: 15%)")
    print()

    print(f"Table 2 — scheduling tasks (n={n}, {args.clock_mhz:g} MHz):")
    print(
        format_table(
            [
                {
                    "task": r.task,
                    "decomposition": r.decomposition,
                    "cycles": r.cycles,
                    "time [ns]": r.time_ns,
                }
                for r in timing_report(n, args.clock_mhz)
            ]
        )
    )
    print()

    print(f"Section 6.2 — communication bits per cycle (i={args.iterations}):")
    print(format_table(comm_table(port_counts=(n,), iterations=args.iterations)))
    print(
        f"time steps: central {central_time_steps(n)} (O(n)) vs "
        f"distributed {distributed_time_steps(n)} (O(log2 n))"
    )

    if args.verify_rtl:
        from repro.core.lcf_central import LCFCentralRR
        from repro.hw.rtl import LCFSchedulerRTL

        rtl = LCFSchedulerRTL(n)
        behavioural = LCFCentralRR(n)
        rng = np.random.default_rng(0)
        mismatches = 0
        for _ in range(args.rtl_cycles):
            requests = rng.random((n, n)) < 0.5
            if not (rtl.schedule(requests) == behavioural.schedule(requests)).all():
                mismatches += 1
        print(
            f"\nRTL cross-check over {args.rtl_cycles} random cycles: "
            f"{mismatches} mismatches; {rtl.last_cycles} cycles per schedule "
            f"(3n+2 = {3 * n + 2})"
        )
        if mismatches:
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    return cli.run_main(build_parser(), build, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
