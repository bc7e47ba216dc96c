"""One bad-input table for the eight ``lcf-*`` console scripts.

Every bad value a script accepts from the command line exits 2 with
exactly one ``<prog>: …`` line on stderr, before any slot runs or any
artifact opens: ``tmp_path``, where every artifact flag points, stays
empty. ``CRASHES`` are inputs that once escaped as a traceback (or ran
anyway); ``SHARED`` holds one bad value for each shared option in every
script that has it. A ``--resume`` of a file written without metrics
resumes instead and reproduces the uninterrupted run.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.obs.cli import _result_summary
from repro.obs.tracer import RingTracer, events_from_jsonl
from repro.sim.config import SimConfig
from repro.sim.simulator import run_simulation

SCRIPTS = {
    "lcf-sweep": "repro.analysis.cli",
    "lcf-fairness": "repro.analysis.fairness_cli",
    "lcf-hw": "repro.hw.cli",
    "lcf-report": "repro.analysis.report",
    "lcf-trace": "repro.obs.cli",
    "lcf-faults": "repro.faults.cli",
    "lcf-adapt": "repro.adapt.cli",
    "lcf-fabric": "repro.fabric.cli",
}

#: Small runs, so a script that wrongly accepts an input ends quickly.
BASE = {
    "lcf-sweep": ["--ports", "4", "--warmup-slots", "0", "--measure-slots", "20",
                  "--loads", "0.5", "--schedulers", "lcf_central", "--quiet"],
    "lcf-fairness": ["--ports", "4"],
    "lcf-hw": [],
    "lcf-report": ["--dashboard", "--fidelity", "smoke", "--ports", "4",
                   "--loads", "0.6", "--schedulers", "lcf_central",
                   "--probe-slots", "20"],
    "lcf-trace": ["--ports", "4", "--slots", "20", "--warmup", "0"],
    "lcf-faults": ["--ports", "4", "--slots", "20", "--warmup", "0"],
    "lcf-adapt": ["--ports", "4", "--slots", "20", "--warmup", "0"],
    "lcf-fabric": ["--slots", "20", "--warmup", "0"],
}

#: Every artifact flag a script has, pointed inside ``tmp_path``.
ARTIFACTS = {
    "lcf-sweep": ["--csv", "out.csv", "--cache-dir", "cache", "--profile", "prof"],
    "lcf-fairness": [],
    "lcf-hw": [],
    "lcf-report": ["--output", "out.md", "--csv", "out.csv", "--png", "out.png",
                   "--cache-dir", "cache"],
    "lcf-trace": ["--out", "out.jsonl", "--chrome", "out.json",
                  "--snapshot", "out.prom"],
    "lcf-faults": ["--json", "out.json", "--csv", "out.csv",
                   "--trace-out", "out.jsonl"],
    "lcf-adapt": ["--json", "out.json", "--csv", "out.csv",
                  "--trace-out", "out.jsonl"],
    "lcf-fabric": ["--json", "out.json", "--csv", "out.csv",
                   "--trace-out", "out.jsonl"],
}

#: Inputs that exited 1 with a traceback, or ran and exited 0.
CRASHES = [
    ("lcf-faults", "--load 1.5"),
    ("lcf-faults", "--scheduler nope"),
    ("lcf-faults", "--traffic nope"),
    ("lcf-faults", "--iterations 0"),
    ("lcf-faults", "--admission 50:10"),
    ("lcf-faults", "--port-down 99:0:10"),
    ("lcf-faults", "--checkpoint F --checkpoint-every 0"),
    ("lcf-faults", "--checkpoint F --stop-at -5"),
    ("lcf-faults", "--schedulers nope --loss-grid 0,0.1"),
    ("lcf-adapt", "--load 1.5"),
    ("lcf-adapt", "--scheduler nope"),
    ("lcf-adapt", "--traffic nope"),
    ("lcf-adapt", "--iterations 0"),
    ("lcf-adapt", "--link-down 99:0:0:10"),
    ("lcf-adapt", "--checkpoint F --checkpoint-every 0"),
    ("lcf-adapt", "--schedulers nope --availability-grid 1,0.9"),
    ("lcf-trace", "--admission 50:10"),
    ("lcf-trace", "--checkpoint F --checkpoint-every 0"),
    ("lcf-fabric", "--single 4 --traffic nope"),
    ("lcf-fabric", "--fault 1.0:9:0:10"),
    ("lcf-fabric", "--fault 0.0:2:10:5"),
    ("lcf-sweep", "--workers 0"),
    ("lcf-sweep", "--workers -3"),
]

_RUN = ["--ports 0", "--slots -5", "--warmup -1", "--iterations 0",
        "--seed -1", "--load 0", "--scheduler nope", "--traffic nope"]
_CHECKPOINT = ["--checkpoint-every 5", "--resume F", "--resume F --checkpoint G"]
_FAULTS = ["--port-down 9:0:10", "--link-down 0:9:0:10", "--availability 1.5"]

#: One bad value per shared option, in every script that has it.
SHARED = [
    *(("lcf-faults", arg) for arg in (
        *_RUN, *_FAULTS, *_CHECKPOINT, "--stop-at 3", "--admission 5",
        "--loss-grid ,", "--loss-grid 0,1.5", "--availability-grid ,",
        "--availability-grid 1,1.5", "--workers 0", "--replicates 0",
    )),
    *(("lcf-adapt", arg) for arg in (
        *_RUN, *_FAULTS, *_CHECKPOINT, "--availability-grid ,",
        "--availability-grid 1,1.5", "--workers 0", "--replicates 0",
    )),
    *(("lcf-trace", arg) for arg in (
        *_RUN, *_CHECKPOINT, "--stop-at 3", "--checkpoint F --stop-at -1",
        "--admission 5",
    )),
    *(("lcf-fabric", arg) for arg in (
        "--load 1.5", "--slots -5", "--warmup -1", "--iterations 0",
        "--seed -1", "--traffic nope", "--load-grid ,", "--load-grid 0.5,2.0",
        "--shards 0", "--boundary 0", "--link-delay 0",
    )),
    *(("lcf-sweep", arg) for arg in (
        "--ports 0", "--warmup-slots -1", "--measure-slots -1",
        "--iterations 0", "--seed -1", "--traffic nope", "--schedulers nope",
        "--replicates 0",
    )),
    ("lcf-hw", "--ports 0"),
    ("lcf-hw", "--iterations 0"),
    ("lcf-fairness", "--ports 0"),
    ("lcf-fairness", "--scheduler nope"),
    ("lcf-report", "--ports 0"),
    ("lcf-report", "--seed -1"),
    ("lcf-report", "--schedulers nope"),
]
SHARED = [case for case in SHARED if case not in CRASHES]


def _argv(prog: str, case: str, tmp_path) -> list[str]:
    names = {"F": str(tmp_path / "run.ckpt"), "G": str(tmp_path / "other.ckpt")}
    argv = [names.get(word, word) for word in case.split()]
    artifacts = ARTIFACTS[prog]
    for i in range(1, len(artifacts), 2):
        artifacts = [*artifacts[:i], str(tmp_path / artifacts[i]), *artifacts[i + 1:]]
    return [*BASE[prog], *argv, *artifacts]


@pytest.mark.parametrize(
    "prog, case", CRASHES + SHARED, ids=[f"{p} {c}" for p, c in CRASHES + SHARED]
)
def test_bad_input_exits_2_with_one_line(prog, case, tmp_path, capsys):
    main = importlib.import_module(SCRIPTS[prog]).main
    code = main(_argv(prog, case, tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{prog}: "), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--boundary", "--link-delay"])
def test_fabric_refusal_names_the_flag(flag, capsys):
    from repro.fabric.cli import main

    assert main([*BASE["lcf-fabric"], flag, "0"]) == 2
    assert capsys.readouterr().err.startswith(f"lcf-fabric: {flag}: ")


# -- a file written without metrics resumes under every checkpoint CLI ---------

CONFIG = SimConfig(n_ports=8, warmup_slots=20, measure_slots=100, seed=7)


@pytest.fixture
def paused(tmp_path):
    """A file paused at slot 60 by a run with no tracer and no metrics,
    the uninterrupted run it continues, and that run's events from 60 on."""
    path = tmp_path / "run.ckpt"
    run_simulation(
        CONFIG, "lcf_central_rr", 0.9, checkpoint_path=path, stop_at_slot=60
    )
    tracer = RingTracer(1 << 16)
    straight = run_simulation(CONFIG, "lcf_central_rr", 0.9, tracer=tracer)
    return path, straight, [e for e in tracer.events if e["slot"] >= 60]


def _row(row: dict) -> dict:
    return json.loads(json.dumps(row))


def test_lcf_faults_resume(paused, tmp_path, capsys):
    from repro.faults.cli import main

    path, straight, _ = paused
    out = tmp_path / "out.json"
    assert main(["--resume", str(path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["row"] == _row(straight.row())


def test_lcf_adapt_resume(paused, tmp_path, capsys):
    from repro.adapt.cli import main

    path, straight, _ = paused
    out = tmp_path / "out.json"
    assert main(["--resume", str(path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["adaptive"] == _row(straight.row())


def test_lcf_trace_resume(paused, tmp_path, capsys):
    from repro.obs.cli import main

    path, straight, events = paused
    trace = tmp_path / "t.jsonl"
    assert main(["--resume", str(path), "--out", str(trace)]) == 0
    assert _result_summary(straight) in capsys.readouterr().out
    assert list(events_from_jsonl(trace)) == events
