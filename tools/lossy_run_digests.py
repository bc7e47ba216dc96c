#!/usr/bin/env python3
"""Fingerprint lossy distributed-LCF runs and pin them against a stored file.

Runs ``lcf_dist`` and ``lcf_dist_rr`` over a lossy control channel
(:meth:`repro.faults.FaultPlan.message_loss`) at n in {8, 16, 80} and
loss in {0.05, 0.3}, each once untraced and once with a JSONL tracer,
and prints one line per run: the sha256 of ``SimResult.row()`` and,
for traced runs, of the JSONL trace file. n = 80 exercises masks wider
than one 64-bit word.

Usage::

    PYTHONPATH=src python tools/lossy_run_digests.py            # print
    PYTHONPATH=src python tools/lossy_run_digests.py --check FILE

``--check`` exits 1 unless every line equals the stored ``FILE``
(``tests/data/lossy_run_digests.txt`` holds the pinned output; regenerate
it with the print mode only after an intended change to the lossy
protocol). About 50 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

SCHEDULERS = ("lcf_dist", "lcf_dist_rr")
WIDTHS = {8: (200, 800), 16: (200, 800), 80: (50, 250)}  # n -> (warmup, measure)
LOSSES = (0.05, 0.3)
SEED = 3
LOAD = 0.9


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines() -> list[str]:
    """One ``scheduler n loss traced row=<sha> trace=<sha>`` line per run."""
    from repro.faults import FaultPlan
    from repro.obs.tracer import JsonlTracer
    from repro.sim.config import SimConfig
    from repro.sim.simulator import run_simulation

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCHEDULERS:
            for n, (warmup, measure) in WIDTHS.items():
                config = SimConfig(
                    n_ports=n, warmup_slots=warmup, measure_slots=measure, seed=SEED
                )
                for loss in LOSSES:
                    for traced in (False, True):
                        path = Path(tmp) / f"{name}-{n}-{loss}.jsonl"
                        tracer = JsonlTracer(path) if traced else None
                        result = run_simulation(
                            config,
                            name,
                            LOAD,
                            collect_percentiles=True,
                            tracer=tracer,
                            faults=FaultPlan.message_loss(loss),
                        )
                        trace = "-"
                        if tracer is not None:
                            tracer.close()
                            trace = _sha(path.read_bytes())
                        row = _sha(repr(sorted(result.row().items())).encode())
                        lines.append(
                            f"{name} n={n} loss={loss} traced={int(traced)} "
                            f"row={row} trace={trace}"
                        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", default=None,
                        help="compare against stored output; exit 1 on any difference")
    args = parser.parse_args(argv)
    lines = digest_lines()
    if args.check is None:
        print("\n".join(lines))
        return 0
    expected = Path(args.check).read_text().splitlines()
    if lines == expected:
        print(f"lossy run digests: {len(lines)} runs match {args.check}")
        return 0
    for got, want in zip(lines, expected):
        if got != want:
            print(f"differs: {got}\n    was: {want}", file=sys.stderr)
    if len(lines) != len(expected):
        print(f"{len(lines)} runs vs {len(expected)} stored", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
