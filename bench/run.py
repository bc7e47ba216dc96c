#!/usr/bin/env python3
"""Run the repository benchmark (see ``bench/README.md``).

From the root of a checkout::

    python3 bench/run.py --workload paper_n16 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, each in a fresh interpreter
    python3 bench/run.py --workload wide_n128 --trace 1 --out DIR

The package is imported from ``src/`` next to this directory. Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics. The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for sweep caches and span files, inside the checkout.
SCRATCH = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 3
#: Seed the stored digests were taken at.
DIGEST_SEED = 1
#: Limit on any interpreter this script starts.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'repro'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, not from {SRC}")


def warm_up(workloads, name: str, seed: int) -> None:
    """The untimed set-up every run pays: build each case once and run it
    for ``WARM_SLOTS`` slots (imports and lazy set-up happen here)."""
    for case in workloads.build(name, seed, SCRATCH, warm=True).cases:
        case.call()


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of its
    :func:`warm_up`, ``repeats`` times.

    The probe prints the monotonic clock (system-wide on Linux) when its
    warm-up ends, so the time it takes to exit is not counted.
    """
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def expected_digests(name: str, seed: int, scale: float) -> dict[str, str] | None:
    if seed != DIGEST_SEED or scale != 1.0 or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())["digests"].get(name)


def by_group(records: dict) -> dict[str, list]:
    """Case records of the calls that returned, keyed by case group."""
    groups: dict[str, list] = {}
    for record in records.values():
        if record.seconds:
            groups.setdefault(record.group, []).append(record)
    return groups


def rate(records: list) -> float:
    """Slots per second of a set of cases, each at its fastest call."""
    return sum(r.slots for r in records) / sum(r.best_s for r in records)


def timed_values(records: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of a timed run, and each case group's own rate."""
    done = [r for r in records.values() if r.seconds]
    values = {
        "slots_per_s": rate(done) if done else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    group_rates = {f"slots_per_s.{g}": rate(rs) for g, rs in by_group(records).items()}
    return values, group_rates


def traced_run(workloads, workload) -> tuple[dict, dict, dict, object]:
    """One untraced and one traced round of every case.

    Returns the traced round's records, the per-layer metrics, each case
    group's path report and the tracer (which holds the spans).
    """
    import tracing

    plain = workloads.run_cases(workload, 0.0, cycles=1)
    tracer = tracing.Tracer()
    marks = []

    def on_case(case):
        # Spans are labelled by group; a group's cases run back to back.
        tracer.case = case.group
        if not marks or marks[-1][0] != case.group:
            marks.append((case.group, tracer.snapshot()))

    with tracer:
        records = workloads.run_cases(workload, 0.0, cycles=1, on_case=on_case)
    marks.append((None, tracer.snapshot()))

    values = tracing.layer_metrics(tracer.aggregates, tracer.spans)
    paths = {
        group: tracing.path_report(
            tracing.diff(after, before),
            [span for span in tracer.spans if span["case"] == group],
        )
        for (group, before), (_, after) in zip(marks, marks[1:])
    }
    plain_s = sum(r.best_s for r in plain.values() if r.seconds)
    traced_s = sum(r.best_s for r in records.values() if r.seconds)
    values["trace.overhead"] = traced_s / plain_s if plain_s else 0.0
    observed, reference = plain.get("observed"), plain.get("lcf_central_rr")
    both = observed is not None and reference is not None
    values["obs.overhead_ratio"] = (
        observed.best_s / reference.best_s
        if both and observed.seconds and reference.seconds
        else 0.0
    )
    return records, values, paths, tracer


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    setup_repeats: int = SETUP_REPEATS,
    out_dir: Path | None = None,
) -> dict:
    """Measure one workload and check its outputs; returns the result
    record that ``--json`` writes (see README)."""
    spec = load_spec()
    SCRATCH.mkdir(exist_ok=True)
    setup_times = [] if trace else measure_setup(name, seed, setup_repeats)
    import workloads

    warm_up(workloads, name, seed)
    workload = workloads.build(name, seed, SCRATCH, scale=scale)
    group_rates: dict = {}
    if trace:
        # End-to-end numbers never come from a traced run.
        records, values, paths, tracer = traced_run(workloads, workload)
        section = spec["per_layer"]
    else:
        records = workloads.run_cases(workload, seconds)
        values, group_rates = timed_values(records, setup_times)
        paths = {}
        section = spec["end_to_end"]

    expected = expected_digests(name, seed, scale)
    checks = workloads.verify(workload, records, expected)
    # Operations: every case call that returned, and every check (a call
    # that raised is a failed "<case> ran" check).
    attempted = sum(len(r.seconds) for r in records.values()) + len(checks)
    failed = sum(not check.passed for check in checks)

    cases = {}
    for case_name, record in records.items():
        entry = {"group": record.group, "slots": record.slots, "calls": len(record.seconds)}
        if record.seconds:
            entry.update(
                best_s=record.best_s, median_s=statistics.median(record.seconds),
                samples_s=record.seconds, digest=record.digests[0],
            )
        if expected is None:
            entry["digest_check"] = "skipped"
        else:
            matches = record.digests[:1] == [expected.get(case_name)]
            entry["digest_check"] = "ok" if matches else "mismatch"
        cases[case_name] = entry
    groups = {}
    for group, members in by_group(records).items():
        checked = {cases[n]["digest_check"] for n, r in records.items() if r.group == group}
        groups[group] = {
            "cases": len(members),
            "calls": min(len(r.seconds) for r in members),
            "best_s": sum(r.best_s for r in members),
            "digest_check": "mismatch" if "mismatch" in checked else checked.pop(),
            **paths.get(group, {}),
        }

    rate_unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == "slots_per_s")
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
        "case_metrics": {k: {"value": v, "unit": rate_unit} for k, v in group_rates.items()},
        "error_rate": failed / attempted,
        "setup_samples_s": setup_times,
        "groups": groups,
        "cases": cases,
        "checks": [vars(check) for check in checks],
    }
    if trace:
        out = (out_dir or SCRATCH) / f"trace-{name}-seed{seed}.json"
        tracer.write(out, {"workload": name, "seed": seed, "per_layer": values})
        result["span_file"] = str(out)
    return result


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "timed"
    print(f"== {record['workload']} (seed {record['seed']}, {mode}) ==")
    for group, entry in record["groups"].items():
        line = (
            f"  {group:<16} best {entry['best_s']:.4f} s over {entry['cases']} case(s), "
            f">= {entry['calls']} calls each  digest {entry['digest_check']}"
        )
        if "crossbar.fast_share" in entry:
            line += (
                f"  fast_share {entry['crossbar.fast_share']:.2f}"
                f"  columnar_fallbacks {entry['columnar.fallbacks']}"
            )
        print(line)
    for check in record["checks"]:
        if not check["passed"]:
            print(f"  FAILED check: {check['name']} {check['detail']}")
    for metric, entry in record["case_metrics"].items():
        print(f"  {metric:<32} {entry['value']:.6g} {entry['unit']}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<32} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':<32} {record['error_rate']:.6g} ratio "
          f"({record['failed']} failed of {record['attempted']})")
    if "span_file" in record:
        print(f"  spans written to {record['span_file']}")


def final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def write_json(path: str | None, records: list[dict]) -> None:
    if path:
        Path(path).write_text(json.dumps({"runs": records}, indent=1))


def write_digests(name: str, record: dict) -> None:
    """Store the seed-1 digests of one workload's cases."""
    import workloads

    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {
        "seed": DIGEST_SEED, "digits": workloads.DIGEST_DIGITS, "digests": {}
    }
    stored["digests"][name] = {
        case_name: case["digest"] for case_name, case in record["cases"].items()
    }
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh interpreter; a summary line last."""
    SCRATCH.mkdir(exist_ok=True)
    records, codes = [], []
    for name in names:
        part = SCRATCH / f"result-{name}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--json", str(part),
        ]
        if args.out:
            command += ["--out", str(Path(args.out).resolve())]
        done = subprocess.run(command, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        codes.append(done.returncode)
        if part.is_file():
            records.extend(json.loads(part.read_text())["runs"])
            part.unlink()
    write_json(args.json, records)
    metrics = {
        f"{r['workload']}.{metric}": entry for r in records for metric, entry in r["metrics"].items()
    }
    correct = len(records) == len(names) and all(r["correct"] for r in records)
    print(final_line(
        correct,
        sum(r["attempted"] for r in records),
        sum(r["failed"] for r in records),
        metrics,
    ))
    return 0 if correct and not any(codes) else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="traffic seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help=f"time budget of the timed loop (default {spec['run_seconds']})",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run reporting the per-layer metrics",
    )
    parser.add_argument("--json", help="also write the result records to this file")
    parser.add_argument("--out", help=f"directory for span files (default {SCRATCH})")
    parser.add_argument(
        "--write-digests", action="store_true",
        help="store this run's case digests as the expected seed-1 digests",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_digests and (args.workload is None or args.seed != DIGEST_SEED):
        parser.error(f"--write-digests needs --workload and --seed {DIGEST_SEED}")

    import_package()
    if args.setup_probe:
        import workloads

        warm_up(workloads, args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.workload is None:
        return run_all(args, names)

    record = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        out_dir=Path(args.out) if args.out else None,
    )
    if args.write_digests:
        write_digests(args.workload, record)
    print_record(record)
    write_json(args.json, [record])
    print(final_line(record["correct"], record["attempted"], record["failed"], record["metrics"]))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
