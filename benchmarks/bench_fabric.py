"""Fabric simulation throughput: slots/sec of the multi-stage engine.

The unit of work is one full fabric *slot* — every stage switch steps
once, boundary deliveries and credit returns are applied, and arrivals
are generated — so the rate here is directly comparable across fabric
sizes and engine variants. Two variants are measured per size, in the
``BENCH_speed.json`` cell format the perf gate already understands:

* ``reference`` — the serial engine on reference schedulers (built
  under the private ``_reference_kernels`` override);
* ``fast`` — the same engine as every run builds it, each stage
  scheduler on its :mod:`repro.fastpath` kernel (bit-identical
  results).

The committed baseline carries the ``fabric_clos`` family at 64 ports
(C(8,8,8), 24 switches) and 1024 ports (C(32,32,32), 96 switches, the
issue's >= 1024-port scale proof); CI re-measures the 64-port cell and
gates its speedup ratio with ``tools/check_bench_regression.py
--only fabric_clos``.

As a module: ``python benchmarks/bench_fabric.py --out fabric.json``
measures the suite; ``--merge BENCH_speed.json`` folds the family into
an existing report in place (preserving the scheduler families).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

from benchmarks.conftest import once
from repro.fabric.sim import run_fabric
from repro.fabric.spec import FabricSpec
from repro.fastpath.registry import _reference_kernels
from repro.sim.config import SimConfig

#: Family name under the report's ``schedulers`` mapping.
FABRIC_FAMILY = "fabric_clos"

#: Port counts the standard suite measures. 1024 = C(32,32,32), the
#: repo's at-scale proof point.
DEFAULT_SIZES = (64, 1024)

#: Slots per timing window (the issue's 1000-slot benchmark run).
DEFAULT_SLOTS = 1000

#: Scheduler every stage runs in the speed cells.
BENCH_SCHEDULER = "lcf_central_rr"


def fabric_spec(n_ports: int, slots: int, load: float = 0.8) -> FabricSpec:
    """The benchmark topology: a square Clos, warmup-free so every
    simulated slot is a measured slot."""
    return FabricSpec.square(
        n_ports,
        BENCH_SCHEDULER,
        load=load,
        config=SimConfig(n_ports=n_ports, warmup_slots=0, measure_slots=slots),
    )


def measure_cell(
    n_ports: int,
    slots: int = DEFAULT_SLOTS,
    repeats: int = 3,
    load: float = 0.8,
) -> dict[str, float]:
    """Reference vs fastpath fabric slot rates for one size."""
    spec = fabric_spec(n_ports, slots, load)
    rates: dict[bool, float] = {}
    for fast in (False, True):
        windows = []
        for _ in range(repeats):
            with contextlib.nullcontext() if fast else _reference_kernels():
                start = time.perf_counter()
                run_fabric(spec)
                windows.append(slots / (time.perf_counter() - start))
        rates[fast] = statistics.median(windows)
    return {
        "reference_slots_per_sec": round(rates[False], 1),
        "fast_slots_per_sec": round(rates[True], 1),
        "speedup": round(rates[True] / rates[False], 3),
    }


def run_fabric_suite(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    slots: int = DEFAULT_SLOTS,
    repeats: int = 3,
    progress=None,
) -> dict:
    """Measure every fabric cell; returns a ``BENCH_speed.json``-format
    report holding only the ``fabric_clos`` family."""
    from repro.fastpath.bench import REPORT_VERSION

    import platform

    cells: dict[str, dict] = {}
    for n_ports in sizes:
        cells[str(n_ports)] = cell = measure_cell(
            n_ports, slots=slots, repeats=repeats
        )
        if progress is not None:
            progress(
                f"{FABRIC_FAMILY:<16} n={n_ports:<5} "
                f"ref {cell['reference_slots_per_sec']:>8.1f}/s  "
                f"fast {cell['fast_slots_per_sec']:>8.1f}/s  "
                f"{cell['speedup']:.2f}x"
            )
    return {
        "version": REPORT_VERSION,
        "slots": slots,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "schedulers": {FABRIC_FAMILY: cells},
    }


def merge_family(report_path: Path, suite: dict) -> None:
    """Fold the suite's families into an existing report file in place."""
    report = json.loads(report_path.read_text())
    report.setdefault("schedulers", {}).update(suite["schedulers"])
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# -- pytest benchmarks -------------------------------------------------------


def test_fabric_slot_rate(benchmark):
    """A C(8,8,8) fabric sustains a usable slot rate and the fastpath
    variant is no slower than the reference engine."""

    def report():
        cell = measure_cell(64, slots=250, repeats=1)
        print(
            f"\nfabric C(8,8,8) 64 ports: "
            f"ref {cell['reference_slots_per_sec']:.1f} slots/s, "
            f"fast {cell['fast_slots_per_sec']:.1f} slots/s "
            f"({cell['speedup']:.2f}x)"
        )
        return cell

    cell = once(benchmark, report)
    assert cell["reference_slots_per_sec"] > 0
    # The fast kernels must never make the fabric slower (generous
    # bound: timing noise on shared CI runners).
    assert cell["speedup"] > 0.7


def test_fabric_sharded_matches_serial(benchmark):
    """Sharded execution is bit-identical to serial at bench scale."""

    def report():
        spec = fabric_spec(64, 200)
        serial = run_fabric(spec)
        sharded = run_fabric(spec, shards=4)
        return serial, sharded

    serial, sharded = once(benchmark, report)
    assert serial.mean_latency == sharded.mean_latency
    assert serial.forwarded == sharded.forwarded
    assert serial.stage_forwards == sharded.stage_forwards


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure fabric slot rates in BENCH_speed.json format."
    )
    parser.add_argument("--sizes", default=None,
                        help=f"comma list of port counts (default "
                        f"{','.join(str(n) for n in DEFAULT_SIZES)})")
    parser.add_argument("--slots", type=int, default=DEFAULT_SLOTS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the fabric-only report here")
    parser.add_argument("--merge", metavar="PATH", default=None,
                        help="fold the family into an existing report file")
    args = parser.parse_args(argv)
    sizes = (
        tuple(int(part) for part in args.sizes.split(",") if part.strip())
        if args.sizes
        else DEFAULT_SIZES
    )
    suite = run_fabric_suite(
        sizes=sizes, slots=args.slots, repeats=args.repeats, progress=print
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(suite, indent=2, sort_keys=True) + "\n"
        )
        print(f"fabric report written to {args.out}")
    if args.merge:
        merge_family(Path(args.merge), suite)
        print(f"fabric family merged into {args.merge}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
