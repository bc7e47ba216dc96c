"""``lcf-faults`` — degraded-mode runs and resilience degradation curves.

Two modes:

* **Single run** (default): simulate one scheduler under a fault plan
  assembled from the flags, print the fault/recovery timeline and a
  degradation summary, optionally writing the JSONL event trace.
* **Sweep** (``--loss-grid`` / ``--availability-grid``): degradation
  curves per scheduler through the parallel sweep engine, with ASCII
  plots and CSV/JSON artifacts.

Examples::

    lcf-faults --scheduler lcf_dist_rr --loss 0.1 \
        --port-down 3:200:400 --slots 1000 --trace-out faults.jsonl
    lcf-faults --schedulers lcf_dist,lcf_dist_rr,pim,islip \
        --loss-grid 0,0.05,0.1,0.2,0.3 --load 0.8 --workers 4 \
        --cache-dir .sweep-cache --csv loss.csv --json report.json
    lcf-faults --schedulers lcf_central_rr,islip \
        --availability-grid 1.0,0.95,0.9,0.8 --ports 8
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from repro import cli
from repro.faults.harness import (
    DEFAULT_AVAILABILITY_GRID,
    DEFAULT_LOSS_GRID,
    run_availability_sweep,
    run_loss_sweep,
)
from repro.ioutil import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import JsonlTracer, RingTracer
from repro.sim.simulator import run_simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-faults",
        description="Fault-injection runs and resilience degradation curves "
        "(LCF reproduction).",
    )
    cli.add_run_options(parser)
    parser.set_defaults(scheduler="lcf_dist_rr")
    parser.add_argument("--schedulers", default=None,
                        help="comma list for sweep modes "
                        "(default: lcf_dist,lcf_dist_rr,pim,islip)")
    # Fault plan (single-run mode).
    parser.add_argument("--loss", type=float, default=0.0,
                        help="uniform request/grant/accept loss probability")
    cli.add_fault_options(parser)
    # Sweep modes.
    parser.add_argument("--loss-grid", type=cli.parse_grid, default=None,
                        metavar="R0,R1,...",
                        help="sweep message-loss axis over these rates "
                        f"(e.g. {','.join(str(x) for x in DEFAULT_LOSS_GRID)})")
    parser.add_argument("--availability-grid", type=cli.parse_grid, default=None,
                        metavar="A0,A1,...",
                        help="sweep availability axis over these values (e.g. "
                        f"{','.join(str(x) for x in DEFAULT_AVAILABILITY_GRID)})")
    parser.add_argument("--replicates", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--metric", default="throughput",
                        choices=("throughput", "mean_latency", "delivery"),
                        help="metric for the ASCII degradation plot")
    # Checkpointing (single-run mode).
    cli.add_admission_option(
        parser, help="single-run mode: attach threshold admission "
        "control with these occupancy watermarks",
    )
    cli.add_checkpoint_options(
        parser,
        checkpoint_help="single-run mode: checkpoint the run's state here",
        stop_at_help="pause at this slot after a final checkpoint",
        resume_help="resume a checkpointed run (fault plan and "
        "scheduler come from the checkpoint; plan flags are ignored)",
    )
    # Artifacts.
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="single-run mode: write the JSONL event trace")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write the degradation rows as CSV")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the degradation report as JSON")
    parser.add_argument("--quiet", action="store_true")
    return parser


#: Why the dedicated fifo/outbuf switch models are refused.
_REFUSE = "without fault support"


def build(args: argparse.Namespace):
    """Judge the invocation and return the run it names."""
    if args.loss_grid is not None and args.availability_grid is not None:
        raise ValueError("choose one of --loss-grid / --availability-grid")
    cli.check_schedulers("--scheduler", (args.scheduler,), refuse=_REFUSE)
    options = cli.check_options(args)
    if args.resume:
        return partial(_resume_run, args)
    if args.loss_grid is None and args.availability_grid is None:
        return partial(_single_run, args, options)
    schedulers = cli.check_schedulers(
        "--schedulers",
        (args.schedulers or "lcf_dist,lcf_dist_rr,pim,islip").split(","),
        refuse=_REFUSE,
    )
    return partial(_sweep, args, options, schedulers)


def _resume_run(args: argparse.Namespace) -> int:
    result, _ = cli.resume(
        args, JsonlTracer(args.trace_out) if args.trace_out else None
    )
    if not args.quiet:
        print(
            f"{result.scheduler} load={result.load:g} (resumed): "
            f"throughput {result.throughput:.3f}, "
            f"mean latency {result.mean_latency:.2f}, "
            f"offered {result.offered}, forwarded {result.forwarded}, "
            f"dropped {result.dropped}, shed {result.shed}"
        )
    if args.trace_out and not args.quiet:
        print(f"trace written to {args.trace_out}")
    if args.json:
        atomic_write_text(
            args.json,
            json.dumps(
                {"mode": "resume", "scheduler": result.scheduler,
                 "load": result.load, "row": result.row()},
                indent=2,
                allow_nan=True,
            ),
        )
    return 0


def _single_run(args: argparse.Namespace, options: cli.Options) -> int:
    plan = options.plan
    tracer = (
        JsonlTracer(args.trace_out) if args.trace_out else RingTracer(1 << 20)
    )
    metrics = MetricsRegistry()
    with tracer:
        result = run_simulation(
            options.config,
            args.scheduler,
            args.load,
            traffic=args.traffic,
            tracer=tracer,
            metrics=metrics,
            faults=plan,
            admission=options.admission,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            stop_at_slot=args.stop_at,
        )
    if not args.quiet:
        print(f"fault plan: {plan.describe()}")
        if args.checkpoint:
            print(f"checkpoint at {args.checkpoint}")
        print(
            f"{args.scheduler} load={args.load:g}: "
            f"throughput {result.throughput:.3f}, "
            f"mean latency {result.mean_latency:.2f}, "
            f"offered {result.offered}, forwarded {result.forwarded}, "
            f"dropped {result.dropped}, shed {result.shed}"
        )
        if "fault_events" in metrics:
            print(
                f"faults: {metrics.counter('fault_events').value} down, "
                f"{metrics.counter('recovery_events').value} recovered, "
                f"{metrics.counter('degraded_slots').value} degraded slot(s), "
                f"{metrics.counter('masked_grants').value} masked grant(s)"
            )
        if isinstance(tracer, RingTracer):
            for event in tracer.of_type("fault") + tracer.of_type("recovery"):
                print(f"  {event}")
    if args.trace_out and not args.quiet:
        print(f"trace written to {args.trace_out}")
    if args.json:
        atomic_write_text(
            args.json,
            json.dumps(
                {
                    "mode": "single",
                    "scheduler": args.scheduler,
                    "load": args.load,
                    "plan": plan.describe(),
                    "row": result.row(),
                },
                indent=2,
            ),
        )
    return 0


def _sweep(args: argparse.Namespace, options: cli.Options, schedulers) -> int:
    common = dict(
        load=args.load,
        config=options.config,
        traffic=args.traffic,
        replicates=args.replicates,
        processes=args.workers,
        cache=args.cache_dir,
        progress=not args.quiet,
    )
    if args.loss_grid is not None:
        report = run_loss_sweep(schedulers, rates=args.loss_grid, **common)
    else:
        report = run_availability_sweep(
            schedulers, availabilities=args.availability_grid, **common,
        )
    if not args.quiet:
        print(report.plot(metric=args.metric))
        print(report.summary())
    if args.csv:
        atomic_write_text(args.csv, report.to_csv())
        if not args.quiet:
            print(f"degradation rows written to {args.csv}")
    if args.json:
        atomic_write_text(
            args.json,
            json.dumps(
                {
                    "mode": report.axis,
                    "load": report.load,
                    "schedulers": list(report.schedulers),
                    "values": list(report.values),
                    "rows": report.rows(),
                },
                indent=2,
                allow_nan=True,
            ),
        )
        if not args.quiet:
            print(f"degradation report written to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return cli.run_main(build_parser(), build, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
