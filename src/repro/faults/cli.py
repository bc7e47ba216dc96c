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

from repro.baselines.registry import SPECIAL_SWITCH_NAMES, available_schedulers
from repro.faults.harness import (
    DEFAULT_AVAILABILITY_GRID,
    DEFAULT_LOSS_GRID,
    run_availability_sweep,
    run_loss_sweep,
)
from repro.faults.plan import FaultPlan, LinkOutage, PortDownInterval
from repro.ioutil import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import JsonlTracer, RingTracer
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation


def _parse_port_down(text: str) -> PortDownInterval:
    """``port:start:end`` or ``port:start:end:side``."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected port:start:end[:side], got {text!r}"
        )
    try:
        port, start, end = (int(p) for p in parts[:3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer field in {text!r}") from None
    side = parts[3] if len(parts) == 4 else "both"
    try:
        return PortDownInterval(port, start, end, side)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_link_down(text: str) -> LinkOutage:
    """``input:output:start:end``."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected input:output:start:end, got {text!r}"
        )
    try:
        return LinkOutage(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float grid {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-faults",
        description="Fault-injection runs and resilience degradation curves "
        "(LCF reproduction).",
    )
    parser.add_argument("--scheduler", default="lcf_dist_rr",
                        help="scheduler for single-run mode "
                        f"({', '.join(available_schedulers())})")
    parser.add_argument("--schedulers", default=None,
                        help="comma list for sweep modes "
                        "(default: lcf_dist,lcf_dist_rr,pim,islip)")
    parser.add_argument("--load", type=float, default=0.8)
    parser.add_argument("--ports", type=int, default=16)
    parser.add_argument("--slots", type=int, default=1000,
                        help="measured slots")
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traffic", default="bernoulli")
    # Fault plan (single-run mode).
    parser.add_argument("--loss", type=float, default=0.0,
                        help="uniform request/grant/accept loss probability")
    parser.add_argument("--port-down", action="append", default=[],
                        type=_parse_port_down, metavar="P:START:END[:SIDE]",
                        help="port outage interval (repeatable)")
    parser.add_argument("--link-down", action="append", default=[],
                        type=_parse_link_down, metavar="I:J:START:END",
                        help="single-crosspoint outage (repeatable)")
    parser.add_argument("--availability", type=float, default=None,
                        help="duty-cycled outages averaging this availability")
    # Sweep modes.
    parser.add_argument("--loss-grid", type=_parse_grid, default=None,
                        metavar="R0,R1,...",
                        help="sweep message-loss axis over these rates "
                        f"(e.g. {','.join(str(x) for x in DEFAULT_LOSS_GRID)})")
    parser.add_argument("--availability-grid", type=_parse_grid, default=None,
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
    parser.add_argument("--admission", metavar="LOW:HIGH", default=None,
                        help="single-run mode: attach threshold admission "
                        "control with these occupancy watermarks")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="single-run mode: checkpoint the run's state here")
    parser.add_argument("--checkpoint-every", metavar="N", type=int, default=None,
                        help="checkpoint cadence in slots (with --checkpoint)")
    parser.add_argument("--stop-at", metavar="SLOT", type=int, default=None,
                        help="pause at this slot after a final checkpoint")
    parser.add_argument("--resume", metavar="PATH", default=None,
                        help="resume a checkpointed run (fault plan and "
                        "scheduler come from the checkpoint; plan flags are "
                        "ignored)")
    # Artifacts.
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="single-run mode: write the JSONL event trace")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write the degradation rows as CSV")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the degradation report as JSON")
    parser.add_argument("--quiet", action="store_true")
    return parser


def validate_common_args(args: argparse.Namespace, prog: str) -> str | None:
    """Shared CLI sanity checks; returns an error message or ``None``.

    argparse types catch malformed values; this catches well-formed
    nonsense (negative seeds, zero ports, empty grids) *before* any
    simulation runs or artifact file is opened, so a bad invocation
    exits non-zero without side effects.
    """
    if args.ports < 1:
        return f"{prog}: --ports must be >= 1, got {args.ports}"
    if args.slots < 0:
        return f"{prog}: --slots must be >= 0, got {args.slots}"
    if args.warmup < 0:
        return f"{prog}: --warmup must be >= 0, got {args.warmup}"
    if args.seed < 0:
        return f"{prog}: --seed must be >= 0, got {args.seed}"
    if not args.load > 0:
        return f"{prog}: --load must be > 0, got {args.load}"
    if getattr(args, "replicates", 1) < 1:
        return f"{prog}: --replicates must be >= 1, got {args.replicates}"
    if getattr(args, "workers", 1) < 1:
        return f"{prog}: --workers must be >= 1, got {args.workers}"
    for flag in ("loss_grid", "availability_grid"):
        grid = getattr(args, flag, None)
        if grid is not None and len(grid) == 0:
            name = flag.replace("_", "-")
            return f"{prog}: --{name} was given but contains no values"
    return None


def _build_plan(args: argparse.Namespace) -> FaultPlan:
    plan = FaultPlan(
        port_down=tuple(args.port_down),
        link_down=tuple(args.link_down),
        request_loss=args.loss,
        grant_loss=args.loss,
        accept_loss=args.loss,
    )
    if args.availability is not None:
        duty = FaultPlan.availability(args.ports, args.availability)
        plan = FaultPlan(
            port_down=plan.port_down,
            port_duty=duty.port_duty,
            link_down=plan.link_down,
            request_loss=plan.request_loss,
            grant_loss=plan.grant_loss,
            accept_loss=plan.accept_loss,
        )
    return plan


def _parse_admission(text: str | None):
    """``LOW:HIGH`` → admission spec dict (None passes through)."""
    if text is None:
        return None
    low, sep, high = text.partition(":")
    if not sep:
        raise ValueError(f"expected LOW:HIGH, got {text!r}")
    return {"low": int(low), "high": int(high)}


def _resume_run(args: argparse.Namespace) -> int:
    from repro.checkpoint import CheckpointError, resume_simulation

    tracer = JsonlTracer(args.trace_out) if args.trace_out else None
    metrics = MetricsRegistry()
    try:
        result = resume_simulation(args.resume, tracer=tracer, metrics=metrics)
    except CheckpointError as exc:
        print(f"lcf-faults: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
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


def _single_run(args: argparse.Namespace) -> int:
    if args.scheduler in SPECIAL_SWITCH_NAMES:
        print(f"lcf-faults: {args.scheduler!r} uses a dedicated switch model "
              "without fault support", file=sys.stderr)
        return 2
    try:
        plan = _build_plan(args)
    except ValueError as exc:
        print(f"lcf-faults: invalid fault plan: {exc}", file=sys.stderr)
        return 2
    config = SimConfig(
        n_ports=args.ports,
        iterations=args.iterations,
        warmup_slots=args.warmup,
        measure_slots=args.slots,
        seed=args.seed,
    )
    tracer = (
        JsonlTracer(args.trace_out) if args.trace_out else RingTracer(1 << 20)
    )
    metrics = MetricsRegistry()
    from repro.checkpoint import CheckpointError

    try:
        with tracer:
            result = run_simulation(
                config,
                args.scheduler,
                args.load,
                traffic=args.traffic,
                tracer=tracer,
                metrics=metrics,
                faults=plan,
                admission=_parse_admission(args.admission),
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                stop_at_slot=args.stop_at,
            )
    except CheckpointError as exc:
        print(f"lcf-faults: {exc}", file=sys.stderr)
        return 2
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


def _sweep(args: argparse.Namespace) -> int:
    schedulers = tuple(
        (args.schedulers or "lcf_dist,lcf_dist_rr,pim,islip").split(",")
    )
    bad = [s for s in schedulers if s in SPECIAL_SWITCH_NAMES]
    if bad:
        print(f"lcf-faults: {bad} use dedicated switch models without fault "
              "support", file=sys.stderr)
        return 2
    config = SimConfig(
        n_ports=args.ports,
        iterations=args.iterations,
        warmup_slots=args.warmup,
        measure_slots=args.slots,
        seed=args.seed,
    )
    common = dict(
        load=args.load,
        config=config,
        traffic=args.traffic,
        replicates=args.replicates,
        processes=args.workers,
        cache=args.cache_dir,
        progress=not args.quiet,
    )
    try:
        if args.loss_grid is not None:
            report = run_loss_sweep(
                schedulers, rates=args.loss_grid, **common,
            )
        else:
            report = run_availability_sweep(
                schedulers, availabilities=args.availability_grid, **common,
            )
    except ValueError as exc:
        print(f"lcf-faults: {exc}", file=sys.stderr)
        return 2
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
    args = build_parser().parse_args(argv)
    error = validate_common_args(args, "lcf-faults")
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.loss_grid is not None and args.availability_grid is not None:
        print("lcf-faults: choose one of --loss-grid / --availability-grid",
              file=sys.stderr)
        return 2
    if (args.checkpoint_every is not None or args.stop_at is not None) and not (
        args.checkpoint or args.resume
    ):
        print("lcf-faults: --checkpoint-every/--stop-at need --checkpoint",
              file=sys.stderr)
        return 2
    if args.admission is not None:
        try:
            _parse_admission(args.admission)
        except ValueError as exc:
            print(f"lcf-faults: bad --admission: {exc}", file=sys.stderr)
            return 2
    if args.resume:
        if args.checkpoint:
            print("lcf-faults: --resume and --checkpoint are mutually "
                  "exclusive", file=sys.stderr)
            return 2
        return _resume_run(args)
    if args.loss_grid is not None or args.availability_grid is not None:
        return _sweep(args)
    return _single_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
