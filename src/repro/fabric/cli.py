"""``lcf-fabric`` — multi-switch Clos fabric simulation runs.

Two modes:

* **Single run** (default): simulate one fabric point, print the
  end-to-end summary (source-NIC-to-sink-NIC latency, throughput, loss,
  backpressure activity, per-stage forward counts), optionally writing
  the JSONL event trace and a JSON artifact.
* **Load grid** (``--load-grid``): one fabric run per offered load,
  with CSV/JSON artifacts — the fabric counterpart of the single-switch
  load sweeps.

Examples::

    lcf-fabric --topology 4,4,4 --schedulers lcf_central_rr --load 0.9
    lcf-fabric --square 64 --schedulers islip,lcf_central_rr,islip \
        --routing least_loaded --shards 4 --trace-out fabric.jsonl
    lcf-fabric --topology 8,8,8 --load-grid 0.5,0.7,0.9,1.0 \
        --csv fabric.csv --json fabric.json
    lcf-fabric --single 16 --load 0.8   # degenerate one-switch fabric
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fabric.spec import ROUTING_POLICIES, FabricSpec
from repro.ioutil import atomic_write_text
from repro.obs.tracer import JsonlTracer, RingTracer
from repro.sim.config import SimConfig


def _parse_topology(text: str) -> tuple[int, int, int]:
    """``m,k,r`` — the Clos C(m, k, r) dimensions."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected m,k,r got {text!r}")
    try:
        m, k, r = (int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer field in {text!r}") from None
    if min(m, k, r) < 1:
        raise argparse.ArgumentTypeError(f"m, k, r must be >= 1, got {text!r}")
    return m, k, r


def _parse_stage_fault(text: str) -> tuple[int, int, tuple]:
    """``stage.index:port:start:end[:side]`` — a per-switch port outage."""
    head, _, rest = text.partition(":")
    stage_index = head.split(".")
    parts = rest.split(":") if rest else []
    if len(stage_index) != 2 or len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"expected stage.index:port:start:end[:side], got {text!r}"
        )
    try:
        stage, index = (int(p) for p in stage_index)
        port, start, end = (int(p) for p in parts[:3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer field in {text!r}") from None
    side = parts[3] if len(parts) == 4 else "both"
    if side not in ("input", "output", "both"):
        raise argparse.ArgumentTypeError(
            f"side must be input/output/both, got {side!r}"
        )
    return (stage, index, (("port_down", ((port, start, end, side),)),))


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float grid {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcf-fabric",
        description="Multi-stage Clos fabric simulation (LCF reproduction).",
    )
    # Topology: exactly one of --topology / --square / --single.
    parser.add_argument("--topology", type=_parse_topology, default=None,
                        metavar="M,K,R",
                        help="explicit Clos C(m,k,r) dimensions")
    parser.add_argument("--square", type=int, default=None, metavar="N",
                        help="square C(k,k,N/k) Clos over N ports")
    parser.add_argument("--single", type=int, default=None, metavar="N",
                        help="degenerate one-switch fabric over N ports")
    parser.add_argument("--schedulers", default="lcf_central_rr",
                        help="comma list: one name (all stages) or one per stage")
    parser.add_argument("--routing", default="hash", choices=ROUTING_POLICIES)
    parser.add_argument("--boundary", type=int, default=64,
                        help="inter-stage boundary queue capacity")
    parser.add_argument("--link-delay", type=int, default=1,
                        help="slots per inter-stage link traversal")
    parser.add_argument("--load", type=float, default=0.8)
    parser.add_argument("--slots", type=int, default=2000,
                        help="measured slots")
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traffic", default="bernoulli")
    parser.add_argument("--fault", action="append", default=[],
                        type=_parse_stage_fault,
                        metavar="S.I:PORT:START:END[:SIDE]",
                        help="port outage on one stage switch (repeatable)")
    # Execution.
    parser.add_argument("--shards", type=int, default=1,
                        help="fabric shards (1 = serial reference engine)")
    parser.add_argument("--backend", default="inline",
                        choices=("inline", "process"),
                        help="shard execution backend (shards > 1)")
    parser.add_argument("--percentiles", action="store_true",
                        help="collect per-packet latency percentiles")
    # Grid mode.
    parser.add_argument("--load-grid", type=_parse_grid, default=None,
                        metavar="L0,L1,...",
                        help="one fabric run per offered load")
    # Artifacts.
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="single-run mode: write the JSONL event trace")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write result rows as CSV")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the run report as JSON")
    parser.add_argument("--quiet", action="store_true")
    return parser


def validate_args(args: argparse.Namespace, prog: str) -> str | None:
    """CLI sanity checks; returns an error message or ``None``.

    argparse types catch malformed values; this catches well-formed
    nonsense (conflicting topology flags, zero shards, empty grids)
    *before* any simulation runs or artifact file is opened, so a bad
    invocation exits non-zero without side effects.
    """
    chosen = [
        flag for flag, value in (
            ("--topology", args.topology),
            ("--square", args.square),
            ("--single", args.single),
        ) if value is not None
    ]
    if len(chosen) > 1:
        return f"{prog}: choose one of {', '.join(chosen)}"
    for flag, value in (("--square", args.square), ("--single", args.single)):
        if value is not None and value < 1:
            return f"{prog}: {flag} must be >= 1, got {value}"
    if args.slots < 0:
        return f"{prog}: --slots must be >= 0, got {args.slots}"
    if args.warmup < 0:
        return f"{prog}: --warmup must be >= 0, got {args.warmup}"
    if args.seed < 0:
        return f"{prog}: --seed must be >= 0, got {args.seed}"
    if not 0.0 < args.load <= 1.0:
        return f"{prog}: --load must be in (0, 1], got {args.load}"
    if args.boundary < 1:
        return f"{prog}: --boundary must be >= 1, got {args.boundary}"
    if args.link_delay < 1:
        return f"{prog}: --link-delay must be >= 1, got {args.link_delay}"
    if args.shards < 1:
        return f"{prog}: --shards must be >= 1, got {args.shards}"
    if args.load_grid is not None:
        if len(args.load_grid) == 0:
            return f"{prog}: --load-grid was given but contains no values"
        bad = [load for load in args.load_grid if not 0.0 < load <= 1.0]
        if bad:
            return f"{prog}: --load-grid values must be in (0, 1], got {bad}"
    if not args.schedulers.strip(","):
        return f"{prog}: --schedulers must name at least one scheduler"
    return None


def build_spec(args: argparse.Namespace, load: float) -> FabricSpec:
    """Assemble the :class:`FabricSpec` one invocation describes.

    Raises ``ValueError`` for semantic errors the spec validates
    (unknown scheduler, fault coordinates off the topology, wrong
    scheduler count) — the caller maps that to exit code 2.
    """
    schedulers = tuple(
        name.strip() for name in args.schedulers.split(",") if name.strip()
    )
    config_changes = dict(
        iterations=args.iterations,
        warmup_slots=args.warmup,
        measure_slots=args.slots,
        seed=args.seed,
    )
    common = dict(
        load=load,
        traffic=args.traffic,
        routing=args.routing,
        boundary_capacity=args.boundary,
        link_delay=args.link_delay,
        stage_faults=tuple(args.fault),
    )
    if args.single is not None:
        if len(schedulers) != 1:
            raise ValueError(
                f"--single takes exactly one scheduler, got {schedulers!r}"
            )
        return FabricSpec.single(
            args.single, schedulers[0],
            config=SimConfig(n_ports=args.single, **config_changes), **common,
        )
    if args.topology is not None:
        m, k, r = args.topology
        return FabricSpec(
            m=m, k=k, r=r, schedulers=schedulers,
            config=SimConfig(n_ports=k * r, **config_changes), **common,
        )
    n_ports = args.square if args.square is not None else 16
    spec = FabricSpec.square(
        n_ports, schedulers[0],
        config=SimConfig(n_ports=n_ports, **config_changes), **common,
    )
    if len(schedulers) > 1:
        spec = FabricSpec.from_spec(
            dict(spec.to_spec()) | {"schedulers": list(schedulers)}
        )
    return spec


def _print_summary(result) -> None:
    spec = result.spec
    print(spec.describe())
    print(
        f"load={spec.load:g}: throughput {result.throughput:.3f}, "
        f"mean latency {result.mean_latency:.2f}, "
        f"p99-ish max {result.max_latency:g}, "
        f"offered {result.offered}, forwarded {result.forwarded}, "
        f"dropped {result.dropped} (loss {result.loss_rate:.4f})"
    )
    print(
        f"conservation: generated {result.generated}, "
        f"delivered {result.delivered}, "
        f"in flight {result.generated - result.delivered - result.dropped}; "
        f"stage forwards {list(result.stage_forwards)}; "
        f"backpressure slots {result.backpressure_slots}"
    )
    if result.fault_events:
        print(
            f"faults: {result.fault_events} down, "
            f"{result.recovery_events} recovered, "
            f"{result.degraded_slots} degraded slot(s), "
            f"{result.masked_grants} masked grant(s)"
        )
    for percentile in sorted(result.percentiles):
        print(f"  p{percentile:g} latency: {result.percentiles[percentile]:.2f}")


def _csv_cell(value: object) -> str:
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _rows_to_csv(rows: list[dict]) -> str:
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(name, "")) for name in header))
    return "\n".join(lines) + "\n"


def _single_run(args: argparse.Namespace, spec: FabricSpec) -> int:
    from repro.fabric.sim import run_fabric

    tracer = (
        JsonlTracer(args.trace_out) if args.trace_out else RingTracer(1 << 16)
    )
    with tracer:
        result = run_fabric(
            spec,
            shards=args.shards,
            backend=args.backend,
            tracer=tracer,
            collect_percentiles=args.percentiles,
        )
    if not args.quiet:
        _print_summary(result)
        if args.trace_out:
            print(f"trace written to {args.trace_out}")
    if args.csv:
        atomic_write_text(args.csv, _rows_to_csv([result.row()]))
        if not args.quiet:
            print(f"result row written to {args.csv}")
    if args.json:
        atomic_write_text(
            args.json,
            json.dumps(
                {
                    "mode": "single",
                    "spec": [list(pair) for pair in spec.to_spec()],
                    "key": spec.key(),
                    "shards": args.shards,
                    "row": result.row(),
                },
                indent=2,
            ),
        )
        if not args.quiet:
            print(f"report written to {args.json}")
    return 0


def _load_grid(args: argparse.Namespace) -> int:
    from repro.fabric.sim import run_fabric

    rows = []
    for load in args.load_grid:
        spec = build_spec(args, load)
        result = run_fabric(
            spec,
            shards=args.shards,
            backend=args.backend,
            collect_percentiles=args.percentiles,
        )
        rows.append(result.row())
        if not args.quiet:
            print(
                f"load {load:g}: throughput {result.throughput:.3f}, "
                f"mean latency {result.mean_latency:.2f}, "
                f"loss {result.loss_rate:.4f}, "
                f"backpressure slots {result.backpressure_slots}"
            )
    if args.csv:
        atomic_write_text(args.csv, _rows_to_csv(rows))
        if not args.quiet:
            print(f"grid rows written to {args.csv}")
    if args.json:
        spec = build_spec(args, args.load_grid[0])
        atomic_write_text(
            args.json,
            json.dumps(
                {
                    "mode": "load-grid",
                    "spec": [list(pair) for pair in spec.to_spec()],
                    "loads": list(args.load_grid),
                    "shards": args.shards,
                    "rows": rows,
                },
                indent=2,
            ),
        )
        if not args.quiet:
            print(f"grid report written to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = validate_args(args, "lcf-fabric")
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        spec = build_spec(
            args, args.load_grid[0] if args.load_grid else args.load
        )
    except ValueError as exc:
        print(f"lcf-fabric: {exc}", file=sys.stderr)
        return 2
    if args.load_grid is not None:
        return _load_grid(args)
    return _single_run(args, spec)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
