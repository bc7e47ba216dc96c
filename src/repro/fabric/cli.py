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
from functools import partial

from repro import cli
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
    # The interval itself (side, start <= end, a port on the switch) is
    # judged with the rest of the spec, by FabricSpec.
    return (stage, index, (("port_down", ((port, start, end, side),)),))


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
    cli.add_run_options(parser, crossbar=False)
    parser.set_defaults(slots=2000)
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
    parser.add_argument("--load-grid", type=cli.parse_grid, default=None,
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


def build(args: argparse.Namespace):
    """Judge the invocation and return the run it names: one
    :class:`FabricSpec` per offered load, each judged by its own
    constructor (unknown scheduler, fault coordinates off the topology,
    wrong scheduler count, boundary or link delay below 1)."""
    topologies = [
        (flag, value) for flag, value in (
            ("--topology", args.topology),
            ("--square", args.square),
            ("--single", args.single),
        ) if value is not None
    ]
    if len(topologies) > 1:
        raise ValueError(f"choose one of {', '.join(f for f, _ in topologies)}")
    flag, value = topologies[0] if topologies else ("--square", 16)
    n_ports = value[1] * value[2] if flag == "--topology" else value
    with cli.naming(flag):
        SimConfig(n_ports=n_ports)
    if not args.schedulers.strip(","):
        raise ValueError("--schedulers must name at least one scheduler")
    config = cli.check_options(args, n_ports=n_ports).config
    for flag, field, value in (
        ("--boundary", "boundary_capacity", args.boundary),
        ("--link-delay", "link_delay", args.link_delay),
    ):
        with cli.naming(flag):
            FabricSpec.single(1, **{field: value})
    specs = [
        build_spec(args, load, config) for load in (args.load_grid or (args.load,))
    ]
    if args.load_grid is not None:
        return partial(_load_grid, args, specs)
    return partial(_single_run, args, specs[0])


def build_spec(args: argparse.Namespace, load: float, config: SimConfig) -> FabricSpec:
    """The :class:`FabricSpec` one invocation describes at ``load``."""
    schedulers = tuple(
        name.strip() for name in args.schedulers.split(",") if name.strip()
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
        return FabricSpec.single(args.single, schedulers[0], config=config, **common)
    if args.topology is not None:
        m, k, r = args.topology
        return FabricSpec(m=m, k=k, r=r, schedulers=schedulers, config=config, **common)
    spec = FabricSpec.square(config.n_ports, schedulers[0], config=config, **common)
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


def _load_grid(args: argparse.Namespace, specs: list[FabricSpec]) -> int:
    from repro.fabric.sim import run_fabric

    rows = []
    for load, spec in zip(args.load_grid, specs):
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
        spec = specs[0]
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
    return cli.run_main(build_parser(), build, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
