"""Replicate-batching throughput: the columnar engine vs serial runs.

Measures whole replicate blocks — R replicates of one (scheduler,
load, n) cell — through :func:`repro.columnar.run.run_replicates`, once
on the columnar engine and once as R fast serial runs, and reports
replicate-slots per second for both plus their ratio. The families
(``columnar_<scheduler>_r<R>``) merge into the committed
``BENCH_speed.json`` baseline and gate in CI next to the kernel
families; the acceptance claim is >= 3x for ``lcf_central_rr`` at
R=32, n=64.

Run as a script to (re)generate the columnar cells of the baseline::

    PYTHONPATH=src python benchmarks/bench_columnar.py BENCH_speed.json

Families already in the output file that this suite does not measure
(the kernel and fabric families) are preserved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.columnar.bench import (
    DEFAULT_COLUMNAR_SIZES,
    DEFAULT_MEASURE_SLOTS,
    DEFAULT_REPLICATES,
    DEFAULT_WARMUP_SLOTS,
    run_columnar_suite,
)
from repro.fastpath.bench import write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default="BENCH_speed.json")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_COLUMNAR_SIZES),
        help="switch widths per cell",
    )
    parser.add_argument(
        "--replicates", type=int, nargs="+", default=list(DEFAULT_REPLICATES),
        help="replicate counts (one family per scheduler x R)",
    )
    parser.add_argument(
        "--warmup-slots", type=int, default=DEFAULT_WARMUP_SLOTS,
        help="simulation warmup slots at the anchor width",
    )
    parser.add_argument(
        "--measure-slots", type=int, default=DEFAULT_MEASURE_SLOTS,
        help="simulation measure slots at the anchor width",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing windows per side of a cell, the sides alternating "
             "(the fastest is reported)",
    )
    args = parser.parse_args(argv)

    report = run_columnar_suite(
        replicates=tuple(args.replicates),
        sizes=tuple(args.sizes),
        warmup_slots=args.warmup_slots,
        measure_slots=args.measure_slots,
        repeats=args.repeats,
        progress=print,
    )
    out_path = Path(args.out)
    if out_path.exists():
        previous = json.loads(out_path.read_text()).get("schedulers", {})
        for family, cells in previous.items():
            report["schedulers"].setdefault(family, cells)
    write_report(report, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
