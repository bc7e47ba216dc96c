#!/usr/bin/env python3
"""Compare two sets of benchmark result files against the bounds.

    python3 bench/compare.py --base parent-*.json --head change-*.json

Each file is a ``bench/run.py --json`` output. For every (metric,
workload) pair present on both sides, prints each side's median and
quartiles and the change of the medians relative to the base, signed so
that positive means worse. The bound is the metric's ``bound`` in
``BENCHMARK.json``; a per-case rate such as ``slots_per_s.islip`` takes
the bound of ``slots_per_s``. Exits 1 if any median is worse by more
than its bound, or if any head run failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        runs.extend(json.loads(Path(path).read_text())["runs"])
    return runs


def collect(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(metric, workload) -> values, from the untraced runs (traced runs
    carry per-layer metrics, which have no bound)."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for section in ("metrics", "case_metrics"):
            for metric, entry in run.get(section, {}).items():
                values.setdefault((metric, run["workload"]), []).append(entry["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def metric_spec(spec: dict, metric: str) -> dict | None:
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    return by_name.get(metric) or by_name.get(metric.split(".", 1)[0])


def _spread(values: list[float]) -> str:
    q1, median, q3 = summary(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base: list[dict], head: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Table lines, and whether every pair stayed within its bound."""
    base_values, head_values = collect(base), collect(head)
    row = "{:<30} {:<17} {:>36} {:>36} {:>9} {:>6}  {}"
    lines = [row.format(
        "metric", "workload", "base median [q1, q3]", "head median [q1, q3]",
        "worse by", "bound", "verdict",
    )]
    ok = True
    for key in sorted(base_values.keys() & head_values.keys(), key=lambda k: (k[1], k[0])):
        metric, workload = key
        entry = metric_spec(spec, metric)
        if entry is None:
            continue
        b_med = summary(base_values[key])[1]
        h_med = summary(head_values[key])[1]
        change = (h_med - b_med) / b_med if b_med else 0.0
        worse = -change if entry["better"] == "higher" else change
        within = worse <= entry["bound"]
        ok &= within
        lines.append(row.format(
            metric, workload, _spread(base_values[key]), _spread(head_values[key]),
            f"{worse:+.2%}", f"{entry['bound']:.0%}", "ok" if within else "WORSE",
        ))
    failed = [run for run in head if not run["correct"]]
    for run in failed:
        lines.append(f"head run failed correctness: {run['workload']} seed {run['seed']}")
    return lines, ok and not failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base")
    parser.add_argument("--head", nargs="+", required=True, help="result files of the change")
    parser.add_argument(
        "--benchmark", default=str(ROOT / "BENCHMARK.json"), help="bounds file"
    )
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    lines, ok = compare(load_runs(args.base), load_runs(args.head), spec)
    print("\n".join(lines))
    print("all within bounds" if ok else "bound exceeded")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
