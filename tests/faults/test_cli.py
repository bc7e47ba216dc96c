"""``lcf-faults`` CLI end-to-end."""

import json
import sys
from pathlib import Path

from repro.faults import cli

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

from check_trace_schema import check_trace  # noqa: E402

FAST = ("--ports", "4", "--slots", "120", "--warmup", "20", "--seed", "3")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_run_with_outage_reports_faults(tmp_path, capsys):
    trace = tmp_path / "faults.jsonl"
    report = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys,
        *FAST,
        "--scheduler", "lcf_dist_rr", "--loss", "0.1",
        "--port-down", "1:30:60",
        "--trace-out", str(trace), "--json", str(report),
    )
    assert code == 0
    assert "port outage" in stdout
    assert "degraded slot" in stdout
    checked, errors = check_trace(trace)
    assert errors == []
    assert checked > 120
    payload = json.loads(report.read_text())
    assert payload["mode"] == "single"
    assert payload["row"]["scheduler"] == "lcf_dist_rr"


def test_single_run_lists_fault_events_without_trace_out(capsys):
    code, stdout, _ = run_cli(
        capsys, *FAST, "--scheduler", "lcf_central_rr", "--port-down", "2:10:40"
    )
    assert code == 0
    assert "'type': 'fault'" in stdout
    assert "'type': 'recovery'" in stdout


def test_loss_grid_sweep_writes_artifacts(tmp_path, capsys):
    csv = tmp_path / "loss.csv"
    report = tmp_path / "loss.json"
    code, stdout, _ = run_cli(
        capsys,
        *FAST,
        "--schedulers", "lcf_dist_rr,islip",
        "--loss-grid", "0,0.3",
        "--cache-dir", str(tmp_path / "cache"),
        "--csv", str(csv), "--json", str(report),
    )
    assert code == 0
    assert "resilience (message_loss" in stdout
    assert csv.read_text().count("\n") >= 4
    payload = json.loads(report.read_text())
    assert payload["mode"] == "message_loss"
    assert len(payload["rows"]) == 4


def test_availability_grid_sweep(capsys):
    code, stdout, _ = run_cli(
        capsys,
        *FAST,
        "--schedulers", "lcf_central_rr",
        "--availability-grid", "1.0,0.9",
    )
    assert code == 0
    assert "resilience (availability" in stdout


def test_bad_port_down_spec_exits_nonzero(capsys):
    try:
        cli.main(["--port-down", "nonsense"])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover
        raise AssertionError("argparse should reject the spec")
    capsys.readouterr()


def test_delay_flag_is_gone(capsys):
    try:
        cli.main([*FAST, "--delay", "0.1"])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover
        raise AssertionError("argparse should reject --delay")
    assert "--delay" in capsys.readouterr().err


def test_both_grids_rejected(capsys):
    code, _, stderr = run_cli(
        capsys, "--loss-grid", "0,0.1", "--availability-grid", "1.0"
    )
    assert code == 2
    assert "choose one" in stderr


def test_special_switch_rejected(capsys):
    code, _, stderr = run_cli(capsys, "--scheduler", "fifo", "--loss", "0.1")
    assert code == 2
    assert "fifo" in stderr


def test_negative_seed_rejected_before_running(capsys):
    code, _, stderr = run_cli(capsys, "--seed", "-1")
    assert code == 2
    assert "--seed" in stderr


def test_zero_ports_rejected(capsys):
    code, _, stderr = run_cli(capsys, "--ports", "0", "--loss", "0.1")
    assert code == 2
    assert "--ports" in stderr


def test_empty_grids_rejected(capsys):
    for flag in ("--loss-grid", "--availability-grid"):
        code, _, stderr = run_cli(capsys, flag, ",")
        assert code == 2
        assert "no values" in stderr


def test_invalid_loss_probability_rejected(capsys):
    code, _, stderr = run_cli(capsys, *FAST, "--loss", "1.5")
    assert code == 2
    assert "invalid fault plan" in stderr


def test_failed_run_leaves_no_artifacts(tmp_path, capsys):
    report = tmp_path / "never.json"
    csv = tmp_path / "never.csv"
    code, _, _ = run_cli(
        capsys, *FAST, "--loss", "1.5",
        "--json", str(report), "--csv", str(csv),
    )
    assert code == 2
    assert list(tmp_path.iterdir()) == []
