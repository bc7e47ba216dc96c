"""``lcf-trace`` — run one traced simulation and explain its decisions.

Runs a configured simulation with the :mod:`repro.obs` instrumentation
attached, writes the per-slot event trace (JSONL and/or a Chrome
trace-event JSON loadable in Perfetto / ``chrome://tracing``), and
prints a scheduler decision summary: RR-override rate, mean matching
size against the maximum-matching yardstick from :mod:`repro.matching`,
and the choice-count / tie-break-depth distributions.

Examples::

    lcf-trace --scheduler lcf_central_rr --load 0.9 --slots 1000 \
        --out trace.jsonl --chrome trace.json
    lcf-trace --scheduler lcf_dist --ports 8 --slots 500
    lcf-trace --scheduler pim --no-max-matching --quiet --out t.jsonl
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from repro import cli
from repro.obs.chrome import write_chrome_trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.probe import MatchingQualityProbe
from repro.obs.tracer import JsonlTracer, RingTracer, events_from_jsonl
from repro.sim.crossbar import InputQueuedSwitch
from repro.sim.simulator import _drive, make_crossbar_scheduler, run_simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-trace",
        description="Traced single-run harness: per-slot event trace plus a "
        "scheduler decision summary (LCF reproduction).",
    )
    cli.add_run_options(
        parser,
        scheduler_help="crossbar scheduler",
        slots_help="measured slots (statistics and trace cover these)",
        warmup_help="untraced warm-up slots before measurement",
    )
    parser.set_defaults(load=0.9, warmup=0)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSONL event trace here")
    parser.add_argument("--chrome", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON (Perfetto-loadable)")
    parser.add_argument("--no-max-matching", action="store_true",
                        help="skip the per-slot Hopcroft-Karp maximum-matching "
                        "yardstick (faster for big runs)")
    parser.add_argument("--snapshot", metavar="PATH", default=None,
                        help="dump a final OpenMetrics snapshot of the run's "
                        "metrics registry here (.json suffix switches to JSON)")
    cli.add_admission_option(
        parser, help="attach threshold admission control with these "
        "occupancy watermarks (packets, switch-wide)",
    )
    cli.add_checkpoint_options(
        parser,
        checkpoint_help="checkpoint the run's complete state here "
        "(switches to the plain run_simulation driver; the "
        "Hopcroft-Karp probe summary is skipped)",
        stop_at_help="pause at this slot after writing a final "
        "checkpoint (with --checkpoint); resume later with --resume",
        resume_help="resume a checkpointed run instead of starting "
        "one; --out captures the remaining slots' events",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the decision summary")
    return parser


def _rate(num: float, den: float) -> float:
    return num / den if den else float("nan")


def _result_summary(result) -> str:
    """Short statistics block for checkpoint/resume runs."""
    lines = [
        "",
        f"== lcf-trace: {result.scheduler} n={result.config.n_ports} "
        f"load={result.load} seed={result.config.seed} ==",
        f"offered {result.offered}  forwarded {result.forwarded}  "
        f"dropped {result.dropped}  shed {result.shed}",
        f"mean latency {result.mean_latency:.3f} slots  "
        f"throughput {result.throughput:.4f}",
    ]
    return "\n".join(lines)


def build(args: argparse.Namespace):
    """Judge the invocation and return the run it names."""
    cli.check_schedulers(
        "--scheduler", (args.scheduler,), refuse="with no VOQ pipeline to trace"
    )
    options = cli.check_options(args)
    if args.resume or args.checkpoint:
        return partial(_run_checkpointed, args, options)
    return partial(_traced_run, args, options)


def _run_checkpointed(args: argparse.Namespace, options: cli.Options) -> int:
    """--checkpoint / --resume flows: the run_simulation driver."""
    tracer = None
    if args.out or args.chrome:
        tracer = JsonlTracer(args.out) if args.out else RingTracer(capacity=1 << 20)
    if args.resume:
        result, metrics = cli.resume(args, tracer)
    else:
        metrics = MetricsRegistry()
        try:
            result = run_simulation(
                options.config,
                args.scheduler,
                args.load,
                traffic=args.traffic,
                tracer=tracer,
                metrics=metrics,
                admission=options.admission,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                stop_at_slot=args.stop_at,
            )
        finally:
            if tracer is not None:
                tracer.close()
    if args.out and not args.quiet:
        print(f"wrote {args.out} ({tracer.emitted} events)")
    if args.chrome:
        events = events_from_jsonl(args.out) if args.out else tracer.events
        spans = write_chrome_trace(events, args.chrome)
        if not args.quiet:
            print(f"wrote {args.chrome} ({spans} trace events)")
    if args.snapshot:
        from repro.ioutil import atomic_write_text
        from repro.obs.serve import render_json, render_openmetrics

        render = (
            render_json if args.snapshot.endswith(".json") else render_openmetrics
        )
        atomic_write_text(args.snapshot, render(metrics))
        if not args.quiet:
            print(f"wrote {args.snapshot} ({len(metrics)} metrics)")
    if args.checkpoint and not args.quiet:
        print(f"checkpoint at {args.checkpoint}")
    if not args.quiet:
        print(_result_summary(result))
    return 0


def _traced_run(args: argparse.Namespace, options: cli.Options) -> int:
    config = options.config
    scheduler = make_crossbar_scheduler(
        args.scheduler, args.ports, iterations=args.iterations, seed=args.seed
    )
    probe = None
    if not args.no_max_matching and getattr(scheduler, "weight_kind", None) is None:
        probe = MatchingQualityProbe(scheduler)

    tracer = JsonlTracer(args.out) if args.out else RingTracer(capacity=1 << 20)
    metrics = MetricsRegistry()
    switch = InputQueuedSwitch(
        config, probe or scheduler, tracer=tracer, metrics=metrics,
        admission=options.admission,
    )

    # `measuring` gates statistics only; the tracer sees every slot,
    # which is what a timeline viewer wants.
    _drive(config, switch, options.pattern, None)
    tracer.close()

    if args.chrome:
        events = (
            events_from_jsonl(args.out) if args.out else tracer.events
        )
        spans = write_chrome_trace(events, args.chrome)
        if not args.quiet:
            print(f"wrote {args.chrome} ({spans} trace events)")
    if args.out and not args.quiet:
        print(f"wrote {args.out} ({tracer.emitted} events)")
    if args.snapshot:
        from repro.ioutil import atomic_write_text
        from repro.obs.serve import render_json, render_openmetrics

        render = (
            render_json if args.snapshot.endswith(".json") else render_openmetrics
        )
        final_slot = config.total_slots - 1 if config.total_slots else None
        atomic_write_text(args.snapshot, render(metrics, slot=final_slot))
        if not args.quiet:
            print(f"wrote {args.snapshot} ({len(metrics)} metrics)")

    if not args.quiet:
        print(decision_summary(args, switch, metrics, probe))
    return 0


def main(argv: list[str] | None = None) -> int:
    return cli.run_main(build_parser(), build, argv)


def decision_summary(
    args, switch: InputQueuedSwitch, metrics: MetricsRegistry, probe
) -> str:
    """Render the post-run scheduler decision report."""
    slots = metrics.counter("slots").value
    grants = metrics.counter("grants").value
    overrides = metrics.counter("rr_overrides").value
    matching = metrics.get("matching_size")
    lines = [
        "",
        f"== lcf-trace: {args.scheduler} n={args.ports} load={args.load} "
        f"slots={slots} seed={args.seed} ==",
        f"offered {switch.offered}  forwarded {switch.forwarded}  "
        f"dropped {switch.dropped}",
        f"mean matching size      {matching.mean:8.3f}  (max observed "
        f"{matching.max:g})" if isinstance(matching, Histogram) else "",
    ]
    if probe is not None and probe.slots:
        lines.append(
            f"mean maximum matching   {probe.mean_maximum:8.3f}  "
            f"(Hopcroft-Karp yardstick)"
        )
        lines.append(
            f"matching efficiency     {probe.efficiency:8.3f}  "
            f"(achieved / maximum, pooled)"
        )
    lines.append(
        f"RR-override rate        {_rate(overrides, slots):8.3f} per slot  "
        f"({_rate(overrides, grants):.4f} of grants)"
    )
    delays = switch.delay_histogram
    if delays is not None and delays.count:
        lines.append(
            f"live delay percentiles  {delays.summary()}  "
            f"(exact, {delays.count} samples)"
        )
    estimator = switch.rate_estimator
    if estimator is not None and estimator.events:
        at = switch._live_slot
        lines.append(
            f"live service rate       {estimator.total_rate(at):8.3f} "
            f"forwards/slot (EWMA alpha={estimator.alpha:g})"
        )
        hottest = ", ".join(
            f"{i}->{j} {rate:.3f}" for i, j, rate in estimator.top_pairs(at)
        )
        if hottest:
            lines.append(f"hottest pairs           {hottest}")
    choices = metrics.get("choice_count")
    if isinstance(choices, Histogram) and choices.count:
        lines.append(f"granted-input choice count (mean {choices.mean:.2f}):")
        lines.append(choices.render())
    depth = metrics.get("tie_break_depth")
    if isinstance(depth, Histogram) and depth.count:
        lines.append(f"tie-break chain depth (mean {depth.mean:.2f}):")
        lines.append(depth.render())
    return "\n".join(line for line in lines if line)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
