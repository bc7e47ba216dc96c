"""lcf-hw CLI."""

import pytest

from repro.hw.cli import main


class TestHwCLI:
    def test_default_report_contains_paper_numbers(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for value in ("7200", "767", "7967", "1376", "216", "1592",
                      "33", "50", "83", "500", "758", "1258", "336", "11264"):
            assert value in out, value

    def test_scaled_report(self, capsys):
        assert main(["--ports", "64"]) == 0
        out = capsys.readouterr().out
        assert "64" in out
        assert "15%" not in out  # utilisation only quoted for n=16

    def test_custom_clock(self, capsys):
        main(["--clock-mhz", "132"])
        out = capsys.readouterr().out
        # Twice the clock, half the time: 83 cycles -> 629 ns.
        assert "629" in out

    def test_rtl_verification_passes(self, capsys):
        assert main(["--ports", "5", "--verify-rtl", "--rtl-cycles", "30"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--ports", "0"],
        ["--ports", "-1"],
        ["--clock-mhz", "0"],
        ["--clock-mhz", "-5"],
        ["--clock-mhz", "inf"],
        ["--iterations", "0"],
        ["--rtl-cycles", "-1", "--verify-rtl"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lcf-hw: ")
