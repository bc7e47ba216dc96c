"""``lcf-trace`` CLI end-to-end."""

import json
import sys
from pathlib import Path

import pytest

from repro.obs import cli

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

from check_trace_schema import check_trace  # noqa: E402


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_traced_run_writes_schema_valid_jsonl(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "lcf_central_rr", "--ports", "4", "--slots", "120",
        "--seed", "9", "--out", str(out),
    )
    assert code == 0
    checked, errors = check_trace(out)
    assert errors == []
    assert checked > 120  # at least one summary per slot plus pipeline events
    assert "RR-override rate" in stdout
    assert "mean matching size" in stdout
    assert "mean maximum matching" in stdout


def test_chrome_export_is_loadable_json(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "lcf_dist_rr", "--ports", "4", "--slots", "80",
        "--chrome", str(chrome),
    )
    assert code == 0
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]
    assert f"wrote {chrome}" in stdout


def test_checkpointed_chrome_export_without_out_holds_the_run(tmp_path, capsys):
    # With no --out the checkpoint and resume flows trace into memory,
    # so --chrome gets the same run events a JSONL trace would give.
    def run_events(*argv):
        chrome = tmp_path / "trace.json"
        assert cli.main([*argv, "--chrome", str(chrome), "--quiet"]) == 0
        events = json.loads(chrome.read_text())["traceEvents"]
        return [event for event in events if event["ph"] != "M"]

    ck = str(tmp_path / "ck")
    run = ["--ports", "4", "--slots", "60", "--checkpoint", ck]
    out = ["--out", str(tmp_path / "t.jsonl")]
    whole = run_events(*run)
    assert len(whole) > 60
    assert whole == run_events(*run, *out)
    run_events(*run, "--stop-at", "30")
    resumed = run_events("--resume", ck)
    assert 0 < len(resumed) < len(whole)
    assert resumed == run_events("--resume", ck, *out)


def test_in_memory_run_without_output_files(capsys):
    code, stdout, _ = run_cli(
        capsys, "--scheduler", "lcf_central", "--ports", "4", "--slots", "60"
    )
    assert code == 0
    assert "tie-break chain depth" in stdout


def test_weight_scheduler_skips_probe(capsys):
    code, stdout, _ = run_cli(
        capsys, "--scheduler", "lqf", "--ports", "4", "--slots", "60"
    )
    assert code == 0
    assert "mean maximum matching" not in stdout


def test_no_max_matching_flag(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "lcf_central", "--ports", "4", "--slots", "60",
        "--no-max-matching",
    )
    assert code == 0
    assert "mean maximum matching" not in stdout


def test_quiet_suppresses_summary(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "--scheduler", "pim", "--ports", "4", "--slots", "40",
        "--out", str(out), "--quiet",
    )
    assert code == 0
    assert stdout == ""
    assert out.exists()


@pytest.mark.parametrize("name", ["fifo", "outbuf"])
def test_special_switches_rejected(name, capsys):
    code, _, stderr = run_cli(capsys, "--scheduler", name)
    assert code == 2
    assert "no VOQ pipeline" in stderr


def test_bad_load_rejected(capsys):
    code, _, stderr = run_cli(capsys, "--load", "1.5")
    assert code == 2
    assert "outside" in stderr


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--ports", "0", "n_ports"),
        ("--slots", "-5", "measure_slots"),
        ("--warmup", "-1", "warmup_slots"),
        ("--iterations", "0", "iterations"),
        ("--scheduler", "nope", "unknown scheduler 'nope'"),
        ("--traffic", "nope", "unknown traffic pattern 'nope'"),
    ],
)
def test_bad_run_option_rejected_with_one_line(capsys, tmp_path, flag, value, reason):
    out = tmp_path / "trace.jsonl"
    code, _, stderr = run_cli(capsys, flag, value, "--out", str(out))
    assert code == 2
    assert stderr.startswith("lcf-trace: ") and reason in stderr
    assert len(stderr.strip().splitlines()) == 1
    assert not out.exists()
