"""``lcf-sweep`` — command-line front end for the Figure 12 harness.

Examples::

    lcf-sweep --schedulers lcf_central,islip,outbuf --loads 0.5,0.8,0.95 \
        --ports 16 --measure-slots 5000 --plot
    lcf-sweep --paper --csv fig12a.csv          # the full Figure 12 grid
    lcf-sweep --relative --plot                 # Figure 12b transform
    lcf-sweep --paper --workers 4 --replicates 4 --cache-dir .sweep-cache
                                                # parallel, resumable run

The sweep itself is executed by :mod:`repro.sweep` — see
``docs/EXPERIMENT_WORKFLOW.md`` for the full workflow (parallelism,
shard seeds, caching/resume).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from repro import cli
from repro.analysis.sweep import (
    PAPER_LOADS,
    SweepSpec,
    check_paper_shape,
    run_sweep,
    shape_report,
)
from repro.analysis.tables import format_table
from repro.baselines.registry import PAPER_SCHEDULERS, available_schedulers


def _parse_loads(text: str) -> tuple[float, ...]:
    loads = tuple(float(part) for part in text.split(","))
    for load in loads:
        if not 0.0 < load <= 1.0:
            raise argparse.ArgumentTypeError(f"load {load} outside (0, 1]")
    return loads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-sweep",
        description="Load-sweep harness for the LCF scheduler reproduction "
        "(Figure 12 of Gura & Eberle, IPPS 2002).",
    )
    parser.add_argument(
        "--schedulers",
        default=",".join(PAPER_SCHEDULERS),
        help="comma-separated scheduler names "
        f"(known: {', '.join(available_schedulers())}, outbuf)",
    )
    parser.add_argument("--loads", type=_parse_loads, default=None,
                        help="comma-separated loads in (0, 1]")
    parser.add_argument("--paper", action="store_true",
                        help="use the full paper load grid (0.05..1.0)")
    parser.add_argument("--ports", type=int, default=16)
    parser.add_argument("--warmup-slots", type=int, default=2000)
    parser.add_argument("--measure-slots", type=int, default=20000)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traffic", default="bernoulli")
    parser.add_argument(
        "--traffic-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pattern parameter, repeatable (e.g. --traffic-arg fraction=0.3 "
        "with --traffic hotspot); values parse as int, then float, else str",
    )
    parser.add_argument(
        "--workers", "--processes", dest="workers", type=int, default=1,
        help="simulation worker processes (1 = serial, bit-identical to "
        "the historical sequential run)",
    )
    parser.add_argument(
        "--replicates", type=int, default=1,
        help="independent seed replicates per (scheduler, load) point; "
        "replicate r runs under seed+r and shards are merged with "
        "pooled statistics",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="on-disk result cache; completed points are stored as they "
        "finish, so interrupted sweeps resume and re-runs are instant",
    )
    parser.add_argument(
        "--profile", metavar="DIR", default=None,
        help="capture one cProfile stats file per computed point into DIR "
        "(inspect with pstats/snakeviz); the run report adds per-worker "
        "telemetry either way",
    )
    parser.add_argument("--relative", action="store_true",
                        help="report latency relative to outbuf (Figure 12b)")
    parser.add_argument("--plot", action="store_true", help="ASCII plot")
    parser.add_argument("--check-shape", action="store_true",
                        help="evaluate the Section 6.3 qualitative claims")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write per-point results as CSV")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _parse_traffic_args(pairs: list[str]) -> tuple[tuple[str, object], ...]:
    parsed: list[tuple[str, object]] = []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--traffic-arg expects KEY=VALUE, got {pair!r}")
        key, text = pair.split("=", 1)
        value: object
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                value = text
        parsed.append((key, value))
    return tuple(parsed)


def build(args: argparse.Namespace):
    """Judge the invocation and return the sweep it names."""
    schedulers = tuple(args.schedulers.split(","))
    loads = args.loads or (PAPER_LOADS if args.paper else (0.3, 0.6, 0.8, 0.9, 0.95))
    if args.relative and "outbuf" not in schedulers:
        schedulers = schedulers + ("outbuf",)
    cli.check_schedulers("--schedulers", schedulers, also=("outbuf",))
    traffic_kwargs = _parse_traffic_args(args.traffic_arg)
    options = cli.check_options(
        args, traffic_load=loads[0], traffic_kwargs=dict(traffic_kwargs)
    )
    spec = SweepSpec(
        schedulers=schedulers,
        loads=loads,
        config=options.config,
        traffic=args.traffic,
        traffic_kwargs=traffic_kwargs,
        replicates=args.replicates,
    )
    return partial(_run, args, spec)


def _run(args: argparse.Namespace, spec: SweepSpec) -> int:
    sweep = run_sweep(
        spec,
        processes=args.workers,
        progress=not args.quiet,
        cache=args.cache_dir,
        profile_dir=args.profile,
    )

    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(sweep.to_csv())
        print(f"wrote {args.csv}")

    if not args.quiet:
        print()
        print(format_table(sweep.rows(),
                           columns=["scheduler", "load", "mean_latency",
                                    "throughput", "dropped"]))
    if args.plot:
        print()
        print(sweep.plot(relative=args.relative))
    if args.check_shape:
        print()
        print(shape_report(check_paper_shape(sweep)))
    return 0


def main(argv: list[str] | None = None) -> int:
    return cli.run_main(build_parser(), build, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
