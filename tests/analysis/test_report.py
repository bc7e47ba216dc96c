"""lcf-report generator (smoke fidelity)."""

import pytest

from repro.analysis.report import FIDELITIES, generate_report, main


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(fidelity="smoke", n_ports=8, seed=2)

    def test_contains_every_section(self, report):
        for heading in (
            "Figure 12a",
            "shape checks",
            "Table 1",
            "Table 2",
            "communication cost",
            "Fairness under saturation",
            "VOQ-leveling",
            "Saturation throughput",
        ):
            assert heading in report, heading

    def test_paper_constants_present(self, report):
        for value in ("7967", "1592", "83", "1258", "336"):
            assert value in report

    def test_shape_checks_ran(self, report):
        assert "shape checks passed" in report

    def test_fairness_bound_met(self, report):
        assert "starved" in report

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError):
            generate_report(fidelity="nope")

    def test_fidelity_presets_sane(self):
        for loads, warmup, measure in FIDELITIES.values():
            assert all(0 < load <= 1 for load in loads)
            assert warmup >= 0 and measure > 0


class TestMain:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["--fidelity", "smoke", "--ports", "8", "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("# LCF reproduction report")


@pytest.mark.parametrize(
    "argv",
    [
        ["--ports", "0"],
        ["--ports", "-3"],
        ["--dashboard", "--ports", "0"],
        ["--dashboard", "--fidelity", "smoke", "--ports", "4", "--schedulers", "nope"],
        ["--dashboard", "--fidelity", "smoke", "--ports", "4", "--loads", "1.5"],
        ["--dashboard", "--fidelity", "smoke", "--ports", "4", "--loads", "abc"],
        ["--dashboard", "--fidelity", "smoke", "--ports", "4", "--probe-slots", "0"],
        ["--dashboard", "--fidelity", "smoke", "--ports", "4", "--probe-slots", "-5"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lcf-report: ")
