"""``lcf-adapt`` — reactive scheduling runs and reactive-vs-oblivious curves.

Two modes:

* **Single run** (default): simulate one scheduler under a fault plan
  twice — fault-blind (oblivious) and adaptive — and print the
  side-by-side degradation plus the health estimator's decisions
  (suspects, probes, readmissions, detection latency). ``--trace-out``
  writes the adaptive run's JSONL event trace.
* **Grid** (``--availability-grid``): reactive-vs-oblivious degradation
  curves per scheduler through the cached parallel sweep engine, with
  CSV/JSON artifacts.

Examples::

    lcf-adapt --scheduler lcf_central_rr --availability 0.9 \
        --ports 8 --slots 1000 --trace-out adapt.jsonl
    lcf-adapt --schedulers lcf_central_rr,islip \
        --availability-grid 1.0,0.95,0.9,0.8 --workers 4 \
        --cache-dir .sweep-cache --csv adapt.csv --json adapt.json
    lcf-adapt --scheduler lcf_dist_rr --link-down 2:5:100:400 \
        --mode ewma --probe-interval 8
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from repro import cli
from repro.adapt.adapter import AdaptiveLCF, ObliviousAdapter
from repro.adapt.config import AdaptConfig
from repro.faults.harness import DEFAULT_AVAILABILITY_GRID, run_adaptive_sweep
from repro.ioutil import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import JsonlTracer, RingTracer
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-adapt",
        description="Fault-reactive scheduling runs and reactive-vs-oblivious "
        "degradation curves (LCF reproduction).",
    )
    cli.add_run_options(parser)
    parser.add_argument("--schedulers", default=None,
                        help="comma list for grid mode "
                        "(default: lcf_central_rr,lcf_dist_rr)")
    # Fault plan (single-run mode) — same flags as lcf-faults.
    cli.add_fault_options(
        parser, availability_help="duty-cycled outages averaging this "
        "availability (default 0.9 when no other fault flag is given)",
    )
    # Reaction parameters (see repro.adapt.AdaptConfig).
    parser.add_argument("--mode", default="count", choices=("count", "ewma"),
                        help="evidence accumulator")
    parser.add_argument("--detection-window", type=int, default=None,
                        metavar="N", help="failed grants before suspect")
    parser.add_argument("--probation-window", type=int, default=None,
                        metavar="N", help="probe successes before readmit")
    parser.add_argument("--probe-interval", type=int, default=None,
                        metavar="SLOTS", help="slots between probe grants")
    parser.add_argument("--port-window", type=int, default=None, metavar="N",
                        help="per-port failure window (0 disables)")
    parser.add_argument("--starvation-window", type=int, default=None,
                        metavar="SLOTS",
                        help="ungranted-request strike window (0 disables)")
    parser.add_argument("--ewma-alpha", type=float, default=None)
    parser.add_argument("--suspect-threshold", type=float, default=None)
    parser.add_argument("--readmit-threshold", type=float, default=None)
    # Grid mode.
    parser.add_argument("--availability-grid", type=cli.parse_grid, default=None,
                        metavar="A0,A1,...",
                        help="compare stances over these availabilities (e.g. "
                        f"{','.join(str(x) for x in DEFAULT_AVAILABILITY_GRID)})")
    parser.add_argument("--replicates", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    # Checkpointing (single-run mode; applies to the adaptive run).
    cli.add_checkpoint_options(
        parser,
        checkpoint_help="single-run mode: checkpoint the adaptive run's "
        "state here (estimator health tables included)",
        resume_help="resume a checkpointed adaptive run; the "
        "oblivious baseline is re-run fresh for comparison",
    )
    # Artifacts.
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="single-run mode: write the adaptive run's "
                        "JSONL event trace")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write the comparison rows as CSV")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the comparison report as JSON")
    parser.add_argument("--quiet", action="store_true")
    return parser


def _build_config(args: argparse.Namespace) -> AdaptConfig:
    """An :class:`AdaptConfig` from the reaction flags (unset flags keep
    the config defaults)."""
    fields = {
        "mode": args.mode,
        "detection_window": args.detection_window,
        "probation_window": args.probation_window,
        "probe_interval": args.probe_interval,
        "port_detection_window": args.port_window,
        "starvation_window": args.starvation_window,
        "ewma_alpha": args.ewma_alpha,
        "suspect_threshold": args.suspect_threshold,
        "readmit_threshold": args.readmit_threshold,
    }
    with cli.naming("invalid reaction config"):
        return AdaptConfig(**{k: v for k, v in fields.items() if v is not None})


#: Why the dedicated fifo/outbuf switch models are refused.
_REFUSE = "without adaptive support"


def build(args: argparse.Namespace):
    """Judge the invocation and return the run it names."""
    cli.check_schedulers("--scheduler", (args.scheduler,), refuse=_REFUSE)
    if args.availability is None and not args.port_down and not args.link_down:
        args.availability = 0.9  # something must fail, or there is nothing to react to
    options = cli.check_options(args)
    adapt = _build_config(args)
    if args.resume:
        return partial(_resume, args, options.resumed["run"])
    if args.availability_grid is None:
        return partial(_single_run, args, options, adapt)
    schedulers = cli.check_schedulers(
        "--schedulers",
        (args.schedulers or "lcf_central_rr,lcf_dist_rr").split(","),
        refuse=_REFUSE,
    )
    return partial(_grid, args, options, adapt, schedulers)


def _single_run(
    args: argparse.Namespace, options: cli.Options, adapt: AdaptConfig
) -> int:
    plan = options.plan
    blind = run_simulation(
        options.config, args.scheduler, args.load, traffic=args.traffic,
        faults=plan, adapter=ObliviousAdapter(),
    )
    tracer = (
        JsonlTracer(args.trace_out) if args.trace_out else RingTracer(1 << 20)
    )
    metrics = MetricsRegistry()
    adapter = AdaptiveLCF(adapt)
    with tracer:
        reactive = run_simulation(
            options.config, args.scheduler, args.load, traffic=args.traffic,
            tracer=tracer, metrics=metrics, faults=plan, adapter=adapter,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
        )
    if args.checkpoint and not args.quiet:
        print(f"checkpoint at {args.checkpoint}")
    if not args.quiet:
        print(f"fault plan: {plan.describe()}")
        print(f"reaction:   {adapt.describe()}")
        for stance, result in (("oblivious", blind), ("adaptive", reactive)):
            print(
                f"{args.scheduler} [{stance:9s}] load={args.load:g}: "
                f"throughput {result.throughput:.3f}, "
                f"mean latency {result.mean_latency:.2f}, "
                f"forwarded {result.forwarded}"
            )
        print(adapter.summary())
        if "detection_latency" in metrics:
            hist = metrics.histogram(
                "detection_latency",
                (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            )
            if hist.count:
                print(f"detection latency: mean {hist.mean:.1f} slot(s) "
                      f"over {hist.count} detection(s)")
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
                    "adapt": dict(adapt.to_spec()),
                    "oblivious": blind.row(),
                    "adaptive": reactive.row(),
                },
                indent=2,
            ),
        )
    return 0


def _resume(args: argparse.Namespace, run: dict) -> int:
    """Resume the adaptive half of a checkpointed comparison.

    The checkpoint's stored run spec rebuilds the oblivious baseline
    from scratch (it is cheap and deterministic), while the adaptive
    run — estimator health tables and all — continues from the file.
    """
    reactive, _ = cli.resume(
        args, JsonlTracer(args.trace_out) if args.trace_out else None
    )
    blind = run_simulation(
        SimConfig(**run["config"]), run["scheduler"], run["load"],
        traffic=run["traffic"], traffic_kwargs=run["traffic_kwargs"],
        faults=run["faults"], adapter=ObliviousAdapter(),
    )
    if not args.quiet:
        for stance, result in (("oblivious", blind), ("adaptive", reactive)):
            print(
                f"{run['scheduler']} [{stance:9s}] load={run['load']:g}: "
                f"throughput {result.throughput:.3f}, "
                f"mean latency {result.mean_latency:.2f}, "
                f"forwarded {result.forwarded}"
            )
    if args.trace_out and not args.quiet:
        print(f"trace written to {args.trace_out}")
    if args.json:
        atomic_write_text(
            args.json,
            json.dumps(
                {
                    "mode": "resume",
                    "scheduler": run["scheduler"],
                    "load": run["load"],
                    "adapt": dict(pair for pair in (run["adapt"] or [])),
                    "oblivious": blind.row(),
                    "adaptive": reactive.row(),
                },
                indent=2,
                allow_nan=True,
            ),
        )
    return 0


def _grid(
    args: argparse.Namespace, options: cli.Options, adapt: AdaptConfig, schedulers
) -> int:
    report = run_adaptive_sweep(
        schedulers,
        availabilities=args.availability_grid,
        load=args.load,
        config=options.config,
        adapt=adapt,
        traffic=args.traffic,
        replicates=args.replicates,
        processes=args.workers,
        cache=args.cache_dir,
        progress=not args.quiet,
    )
    if not args.quiet:
        print(report.summary())
    if args.csv:
        atomic_write_text(args.csv, report.to_csv())
        if not args.quiet:
            print(f"comparison rows written to {args.csv}")
    if args.json:
        atomic_write_text(
            args.json,
            json.dumps(
                {
                    "mode": "availability",
                    "load": report.load,
                    "schedulers": list(report.schedulers),
                    "values": list(report.values),
                    "adapt": dict(report.adapt_spec),
                    "rows": report.rows(),
                },
                indent=2,
                allow_nan=True,
            ),
        )
        if not args.quiet:
            print(f"comparison report written to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return cli.run_main(build_parser(), build, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
