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

from repro.adapt.adapter import AdaptiveLCF, ObliviousAdapter
from repro.adapt.config import AdaptConfig
from repro.baselines.registry import SPECIAL_SWITCH_NAMES, available_schedulers
from repro.faults.cli import (
    _build_plan,
    _parse_grid,
    _parse_link_down,
    _parse_port_down,
    validate_common_args,
)
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
    parser.add_argument("--scheduler", default="lcf_central_rr",
                        help="scheduler for single-run mode "
                        f"({', '.join(available_schedulers())})")
    parser.add_argument("--schedulers", default=None,
                        help="comma list for grid mode "
                        "(default: lcf_central_rr,lcf_dist_rr)")
    parser.add_argument("--load", type=float, default=0.8)
    parser.add_argument("--ports", type=int, default=16)
    parser.add_argument("--slots", type=int, default=1000,
                        help="measured slots")
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traffic", default="bernoulli")
    # Fault plan (single-run mode) — same flags as lcf-faults.
    parser.add_argument("--port-down", action="append", default=[],
                        type=_parse_port_down, metavar="P:START:END[:SIDE]",
                        help="port outage interval (repeatable)")
    parser.add_argument("--link-down", action="append", default=[],
                        type=_parse_link_down, metavar="I:J:START:END",
                        help="single-crosspoint outage (repeatable)")
    parser.add_argument("--availability", type=float, default=None,
                        help="duty-cycled outages averaging this availability "
                        "(default 0.9 when no other fault flag is given)")
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
    parser.add_argument("--availability-grid", type=_parse_grid, default=None,
                        metavar="A0,A1,...",
                        help="compare stances over these availabilities (e.g. "
                        f"{','.join(str(x) for x in DEFAULT_AVAILABILITY_GRID)})")
    parser.add_argument("--replicates", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    # Checkpointing (single-run mode; applies to the adaptive run).
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="single-run mode: checkpoint the adaptive run's "
                        "state here (estimator health tables included)")
    parser.add_argument("--checkpoint-every", metavar="N", type=int, default=None,
                        help="checkpoint cadence in slots (with --checkpoint)")
    parser.add_argument("--resume", metavar="PATH", default=None,
                        help="resume a checkpointed adaptive run; the "
                        "oblivious baseline is re-run fresh for comparison")
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
    return AdaptConfig(**{k: v for k, v in fields.items() if v is not None})


def _single_run(args: argparse.Namespace, adapt: AdaptConfig) -> int:
    if args.scheduler in SPECIAL_SWITCH_NAMES:
        print(f"lcf-adapt: {args.scheduler!r} uses a dedicated switch model "
              "without adaptive support", file=sys.stderr)
        return 2
    if args.availability is None and not args.port_down and not args.link_down:
        args.availability = 0.9  # something must fail, or there is nothing to react to
    args.loss = 0.0
    try:
        plan = _build_plan(args)
    except ValueError as exc:
        print(f"lcf-adapt: invalid fault plan: {exc}", file=sys.stderr)
        return 2
    config = SimConfig(
        n_ports=args.ports,
        iterations=args.iterations,
        warmup_slots=args.warmup,
        measure_slots=args.slots,
        seed=args.seed,
    )
    blind = run_simulation(
        config, args.scheduler, args.load, traffic=args.traffic,
        faults=plan, adapter=ObliviousAdapter(),
    )
    tracer = (
        JsonlTracer(args.trace_out) if args.trace_out else RingTracer(1 << 20)
    )
    metrics = MetricsRegistry()
    adapter = AdaptiveLCF(adapt)
    with tracer:
        reactive = run_simulation(
            config, args.scheduler, args.load, traffic=args.traffic,
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


def _resume(args: argparse.Namespace) -> int:
    """Resume the adaptive half of a checkpointed comparison.

    The checkpoint's stored run spec rebuilds the oblivious baseline
    from scratch (it is cheap and deterministic), while the adaptive
    run — estimator health tables and all — continues from the file.
    """
    from repro.checkpoint import CheckpointError, load_checkpoint, resume_simulation

    tracer = JsonlTracer(args.trace_out) if args.trace_out else None
    metrics = MetricsRegistry()
    try:
        run = load_checkpoint(args.resume)["run"]
        reactive = resume_simulation(args.resume, tracer=tracer, metrics=metrics)
    except CheckpointError as exc:
        print(f"lcf-adapt: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
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


def _grid(args: argparse.Namespace, adapt: AdaptConfig) -> int:
    schedulers = tuple(
        (args.schedulers or "lcf_central_rr,lcf_dist_rr").split(",")
    )
    bad = [s for s in schedulers if s in SPECIAL_SWITCH_NAMES]
    if bad:
        print(f"lcf-adapt: {bad} use dedicated switch models without "
              "adaptive support", file=sys.stderr)
        return 2
    config = SimConfig(
        n_ports=args.ports,
        iterations=args.iterations,
        warmup_slots=args.warmup,
        measure_slots=args.slots,
        seed=args.seed,
    )
    try:
        report = run_adaptive_sweep(
            schedulers,
            availabilities=args.availability_grid,
            load=args.load,
            config=config,
            adapt=adapt,
            traffic=args.traffic,
            replicates=args.replicates,
            processes=args.workers,
            cache=args.cache_dir,
            progress=not args.quiet,
        )
    except ValueError as exc:
        print(f"lcf-adapt: {exc}", file=sys.stderr)
        return 2
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
    args = build_parser().parse_args(argv)
    error = validate_common_args(args, "lcf-adapt")
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        adapt = _build_config(args)
    except ValueError as exc:
        print(f"lcf-adapt: invalid reaction config: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and not args.checkpoint:
        print("lcf-adapt: --checkpoint-every needs --checkpoint", file=sys.stderr)
        return 2
    if args.resume:
        if args.checkpoint:
            print("lcf-adapt: --resume and --checkpoint are mutually "
                  "exclusive", file=sys.stderr)
            return 2
        return _resume(args)
    if args.availability_grid is not None:
        return _grid(args, adapt)
    return _single_run(args, adapt)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
