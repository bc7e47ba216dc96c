"""``lcf-fabric`` CLI: argument validation, exit codes, and artifacts.

Every negative path must exit 2 *before* any simulation runs or any
artifact file is opened — a bad invocation leaves no partial output.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import parse_grid as _parse_grid
from repro.fabric.cli import (
    _csv_cell,
    _parse_stage_fault,
    _parse_topology,
    _rows_to_csv,
    main,
)


def run_cli(*argv):
    return main(list(argv))


class TestParsers:
    def test_topology(self):
        assert _parse_topology("2,4,3") == (2, 4, 3)

    def test_topology_rejects_garbage(self):
        import argparse
        for bad in ("2,4", "a,b,c", "0,4,4"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_topology(bad)

    def test_stage_fault(self):
        stage, index, plan = _parse_stage_fault("1.2:0:50:99")
        assert (stage, index) == (1, 2)
        assert plan == (("port_down", ((0, 50, 99, "both"),)),)

    def test_stage_fault_with_side(self):
        _, _, plan = _parse_stage_fault("0.1:3:10:20:input")
        assert plan == (("port_down", ((3, 10, 20, "input"),)),)

    def test_grid(self):
        assert _parse_grid("0.5,0.8,1.0") == (0.5, 0.8, 1.0)


class TestNegativePaths:
    """Well-formed nonsense exits 2 with no artifact written."""

    CASES = (
        ("--topology", "4,4,4", "--single", "16"),     # conflicting topology
        ("--square", "0"),
        ("--load", "1.5"),
        ("--load", "0"),
        ("--boundary", "0"),
        ("--link-delay", "0"),
        ("--shards", "0"),
        ("--load-grid", ",",),
        ("--load-grid", "0.5,2.0"),
        ("--schedulers", ","),
        ("--schedulers", "not_a_scheduler"),           # spec-level error
        ("--schedulers", "islip,pim"),                 # wrong count for 3 stages
        ("--single", "16", "--schedulers", "a,b,c"),
        ("--fault", "5.0:0:1:2"),                      # stage off topology
    )

    @pytest.mark.parametrize("extra", CASES, ids=lambda c: " ".join(c))
    def test_exits_2_without_artifacts(self, extra, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = run_cli(
            "--slots", "20", "--warmup", "0",
            "--csv", str(csv_path), "--json", str(json_path), *extra,
        )
        assert code == 2
        assert not csv_path.exists()
        assert not json_path.exists()
        assert capsys.readouterr().err.strip()

    def test_malformed_values_exit_2_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--topology", "nope")
        assert exc.value.code == 2


class TestSingleRun:
    def test_writes_csv_json_and_trace(self, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        json_path = tmp_path / "run.json"
        trace_path = tmp_path / "trace.jsonl"
        code = run_cli(
            "--topology", "4,4,4", "--slots", "60", "--warmup", "20",
            "--csv", str(csv_path), "--json", str(json_path),
            "--trace-out", str(trace_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "throughput" in header and "backpressure_slots" in header

        report = json.loads(json_path.read_text())
        assert report["mode"] == "single"
        assert report["key"]
        assert dict(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in report["spec"]
        )
        assert report["row"]["forwarded"] >= 0

        trace = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert trace and all("switch" in event for event in trace)
        assert "C(4,4,4)" in capsys.readouterr().out

    def test_quiet_single_run_prints_nothing(self, capsys):
        assert run_cli("--slots", "30", "--warmup", "0", "--quiet") == 0
        assert capsys.readouterr().out == ""

    def test_single_switch_mode(self, capsys):
        code = run_cli(
            "--single", "8", "--schedulers", "islip",
            "--slots", "50", "--warmup", "10",
        )
        assert code == 0
        assert "single 8-port islip crossbar" in capsys.readouterr().out

    def test_sharded_run_with_fault(self, tmp_path):
        json_path = tmp_path / "fault.json"
        code = run_cli(
            "--topology", "4,4,4", "--slots", "100", "--warmup", "0",
            "--fault", "1.0:0:20:60", "--shards", "2", "--quiet",
            "--json", str(json_path),
        )
        assert code == 0
        row = json.loads(json_path.read_text())["row"]
        # Default side "both" downs the input and the output port.
        assert row["fault_events"] == 2
        assert row["degraded_slots"] == 40


class TestLoadGrid:
    def test_grid_artifacts(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        json_path = tmp_path / "grid.json"
        code = run_cli(
            "--square", "16", "--load-grid", "0.5,0.9",
            "--slots", "60", "--warmup", "20",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3  # header + one row per load
        report = json.loads(json_path.read_text())
        assert report["mode"] == "load-grid"
        assert report["loads"] == [0.5, 0.9]
        assert [row["load"] for row in report["rows"]] == [0.5, 0.9]
        assert "load 0.5" in capsys.readouterr().out


class TestCsvQuoting:
    def test_cells_with_commas_are_quoted(self):
        text = _rows_to_csv([{"a": "x,y", "b": 'say "hi"', "c": 3}])
        assert text.splitlines()[1] == '"x,y","say ""hi""",3'

    def test_plain_cells_unquoted(self):
        assert _csv_cell(1.25) == "1.25"
