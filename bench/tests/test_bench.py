"""Self-tests of the benchmark at tiny run lengths.

    PYTHONPATH=src python -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracing
import workloads

TINY = 0.02
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    return run.load_spec()


@pytest.fixture(scope="module")
def records() -> dict[tuple[str, int], dict]:
    """One tiny run of every workload, untraced and traced."""
    return {
        (name, trace): run.run_workload(name, 1, 0.0, bool(trace), scale=TINY, setup_repeats=1)
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }


def _repro_attributes() -> dict[tuple, object]:
    """Every attribute of every loaded ``repro`` module and of the
    classes those modules define."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for attr, value in vars(module).items():
            found[(module_name, attr)] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for class_attr, class_value in vars(value).items():
                    found[(module_name, value.__qualname__, class_attr)] = class_value
    return found


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_emitted_with_a_valid_name(records):
    spec = _spec()
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        names = [m["name"] for m in spec[section]]
        assert all(NAME.fullmatch(name) for name in names)
        for workload in workloads.WORKLOADS:
            record = records[(workload, trace)]
            assert list(record["metrics"]) == names, (workload, section)
            for name, entry in record["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (workload, name)
                assert entry["unit"] == next(m["unit"] for m in spec[section] if m["name"] == name)
    for record in records.values():
        # Runs this short cannot reproduce the Figure 12 orderings; every
        # other check must pass.
        failed = [c["name"] for c in record["checks"] if not c["passed"]]
        assert all(name.startswith("paper shape:") for name in failed), failed
        assert record["attempted"] >= 1 and record["failed"] == len(failed)
        assert all(NAME.fullmatch(name) for name in record["case_metrics"])


def test_end_to_end_metrics_are_positive(records):
    for workload in workloads.WORKLOADS:
        for name, entry in records[(workload, 0)]["metrics"].items():
            assert entry["value"] > 0, (workload, name)


def test_trace_restores_every_patched_attribute(records):
    # The traced runs above already installed and removed the wrappers.
    before = _repro_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer.patches)
    tracer.uninstall()
    assert patched, "the tracer patched nothing"
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    after = _repro_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_traced_run_reports_layers_and_paths(records):
    layers = records[("paper_n16", 1)]["metrics"]
    assert layers["sched.calls"]["value"] > 0
    assert layers["obs.calls"]["value"] > 0
    groups = records[("paper_n16", 1)]["groups"]
    assert groups["lcf_central_rr"]["crossbar.fast_share"] == 1.0
    assert groups["observed"]["crossbar.fast_share"] == 0.0
    sweep = records[("fig12_reduced", 1)]["metrics"]
    assert sweep["sweep.points"]["value"] == 9 * 7 * 2
    blocks = records[("replicate_blocks", 1)]["groups"]
    assert blocks["n64_r32"]["columnar.fallbacks"] == 0
    # Schedulers without a columnar kernel fall back on every block.
    assert records[("fig12_reduced", 1)]["groups"]["wfront"]["columnar.fallbacks"] == 7
    for trace_record in (records[(w, 1)] for w in workloads.WORKLOADS):
        spans = json.loads(open(trace_record["span_file"]).read())["spans"]
        assert spans and all({"name", "start", "end", "parent"} <= set(s) for s in spans)


def test_digest_is_stable_across_runs(tmp_path):
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1, tmp_path, scale=TINY)
        first = workloads.run_cases(workload, 0.0, cycles=1)
        second = workloads.run_cases(workload, 0.0, cycles=1)
        assert {n: r.digests for n, r in first.items()} == {
            n: r.digests for n, r in second.items()
        }


@pytest.mark.parametrize(
    "change",
    [
        lambda r: {"forwarded": r.forwarded + 1},
        lambda r: {"mean_latency": r.mean_latency * (1 + 1e-9)},
        lambda r: {"percentiles": {**r.percentiles, 99.0: r.percentiles[99.0] + 1}},
    ],
)
def test_perturbed_result_fails_the_check(tmp_path, change):
    workload = workloads.build("paper_n16", 1, tmp_path, scale=TINY)
    good = workloads.run_cases(workload, 0.0, cycles=1)
    expected = {name: record.digests[0] for name, record in good.items()}
    assert all(c.passed for c in workloads.verify(workload, good, expected))

    def perturb(case):
        def call():
            result = case.call()
            return dataclasses.replace(result, **change(result))

        return dataclasses.replace(case, call=call)

    workload.cases = [perturb(workload.cases[0])] + workload.cases[1:]
    bad = workloads.run_cases(workload, 0.0, cycles=1)
    failed = [c.name for c in workloads.verify(workload, bad, expected) if not c.passed]
    assert "lcf_central_rr digest" in failed
    # Seed-independent: the observed run no longer equals the plain one.
    assert "observed row == lcf_central_rr row" in failed


def test_a_raising_case_is_a_failure_and_the_others_still_run(tmp_path):
    workload = workloads.build("paper_n16", 1, tmp_path, scale=TINY)

    def boom():
        raise RuntimeError("boom")

    workload.cases[1] = dataclasses.replace(workload.cases[1], call=boom)
    records = workloads.run_cases(workload, 0.0, cycles=2)
    assert records["lcf_dist_rr"].seconds == []
    assert all(len(r.seconds) == 2 for n, r in records.items() if n != "lcf_dist_rr")
    failed = [c.name for c in workloads.verify(workload, records, None) if not c.passed]
    assert failed == ["lcf_dist_rr ran"]


def test_compare_flags_a_regression_beyond_the_bound():
    def result(rate):
        return {"runs": [{
            "workload": "paper_n16", "seed": 1, "trace": 0, "correct": True,
            "metrics": {"slots_per_s": {"value": rate, "unit": "1/s"}},
            "case_metrics": {"slots_per_s.islip": {"value": rate, "unit": "1/s"}},
        }]}

    spec = _spec()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "slots_per_s")
    within = 1000.0 * (1 - bound / 2)
    lines, ok = compare.compare(result(1000.0)["runs"], result(within)["runs"], spec)
    assert ok and len(lines) == 3
    beyond = 1000.0 * (1 - bound * 1.5)
    lines, ok = compare.compare(result(1000.0)["runs"], result(beyond)["runs"], spec)
    assert not ok and sum("WORSE" in line for line in lines) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_n16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
