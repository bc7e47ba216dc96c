"""lcf-sweep CLI."""

import pytest

from repro.analysis.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.ports == 16
        assert args.traffic == "bernoulli"

    def test_load_parsing(self):
        args = build_parser().parse_args(["--loads", "0.5,0.9"])
        assert args.loads == (0.5, 0.9)

    def test_invalid_load_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--loads", "1.5"])


class TestMain:
    COMMON = [
        "--ports", "4", "--warmup-slots", "20", "--measure-slots", "200",
        "--loads", "0.5", "--quiet",
    ]

    def test_basic_run(self, capsys):
        code = main(["--schedulers", "lcf_central"] + self.COMMON)
        assert code == 0

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "points.csv"
        main(["--schedulers", "lcf_central", "--csv", str(out)] + self.COMMON)
        content = out.read_text()
        assert content.startswith("scheduler,load")
        assert "lcf_central" in content

    def test_plot_output(self, capsys):
        main(["--schedulers", "lcf_central,outbuf", "--plot"] + self.COMMON)
        assert "Figure 12a" in capsys.readouterr().out

    def test_relative_adds_outbuf(self, capsys):
        main(["--schedulers", "lcf_central", "--relative", "--plot"] + self.COMMON)
        assert "Figure 12b" in capsys.readouterr().out

    def test_shape_check_output(self, capsys):
        main(
            ["--schedulers", "lcf_central,outbuf", "--check-shape"]
            + self.COMMON
        )
        assert "shape checks passed" in capsys.readouterr().out


class TestTrafficArgs:
    def test_traffic_kwargs_forwarded(self, capsys):
        code = main([
            "--schedulers", "lcf_central", "--traffic", "hotspot",
            "--traffic-arg", "fraction=1.0", "--traffic-arg", "hotspot=2",
            "--ports", "4", "--warmup-slots", "20", "--measure-slots", "200",
            "--loads", "0.5", "--quiet",
        ])
        assert code == 0

    def test_malformed_traffic_arg_rejected(self):
        assert main([
            "--schedulers", "lcf_central", "--traffic-arg", "broken",
            "--loads", "0.5", "--quiet",
        ]) == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--replicates", "0"],
            ["--schedulers", "nope"],
            ["--ports", "0"],
            ["--traffic-arg", "foo"],
            ["--traffic", "nope"],
            ["--traffic-arg", "bogus=1"],
            ["--traffic-arg", "batch=0"],
            ["--traffic-arg", "batch=4"],
            ["--traffic", "hotspot", "--traffic-arg", "fraction=2"],
        ],
    )
    def test_exits_2_with_one_stderr_line(self, argv, capsys):
        assert main(argv + ["--loads", "0.5", "--quiet"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("lcf-sweep: ") and len(err.splitlines()) == 1
