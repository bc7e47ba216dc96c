"""lcf-fairness CLI."""

import pytest

from repro.analysis.fairness_cli import main


class TestFairnessCLI:
    def test_rr_scheduler_exits_zero(self, capsys):
        code = main(["--scheduler", "lcf_central_rr", "--ports", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lcf_central_rr" in out
        assert "min_rate" in out

    def test_pure_lcf_on_adversarial_pattern_exits_nonzero(self, capsys):
        code = main(
            ["--scheduler", "lcf_central", "--ports", "4", "--adversarial"]
        )
        assert code == 1  # starvation detected -> failure status

    def test_rr_on_adversarial_pattern_exits_zero(self, capsys):
        code = main(
            ["--scheduler", "lcf_central_rr", "--ports", "4", "--adversarial"]
        )
        assert code == 0

    def test_heatmap_output(self, capsys):
        main(["--scheduler", "islip", "--ports", "4", "--heatmap"])
        out = capsys.readouterr().out
        assert "per-pair grants" in out
        assert "scale:" in out

    def test_all_probes_whole_set(self, capsys):
        code = main(["--all", "--ports", "4"])
        out = capsys.readouterr().out
        for name in ("lcf_central", "pim", "wfront"):
            assert name in out

    def test_fifo_rejected(self, capsys):
        assert main(["--scheduler", "fifo", "--ports", "4"]) == 2

    def test_custom_cycles(self, capsys):
        main(["--scheduler", "islip", "--ports", "4", "--cycles", "32"])
        assert "32" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--ports", "0"],
        ["--ports", "-2"],
        ["--scheduler", "nope"],
        ["--cycles", "0"],
        ["--cycles", "-3"],
        ["--ports", "2", "--adversarial"],
        ["--all", "--ports", "0"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lcf-fairness: ")
