"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        arguments = parser.parse_args(["table2", "--scale", "quick", "--seed", "3"])
        assert arguments.experiment == "table2"
        assert arguments.scale == "quick"
        assert arguments.seed == 3

    def test_default_scale_is_quick(self):
        assert build_parser().parse_args(["figure4"]).scale == "quick"

    def test_fleet_sim_accepts_devices_flag(self):
        arguments = build_parser().parse_args(["fleet-sim", "--devices", "4"])
        assert arguments.experiment == "fleet-sim"
        assert arguments.devices == 4
        assert build_parser().parse_args(["fleet-sim"]).devices is None

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--scale", "huge"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table2", "--sanitize"], "--sanitize only applies to the chaos"),
            (["table2", "--select", "repro-rng"], "--select only applies to the lint"),
            (["figure4", "--path", "src"], "--path only applies to the lint"),
            (["serve", "--regions", "2"], "--regions only applies to fleet-sim"),
            (["serve", "--executor", "thread"], "--executor/--workers only apply"),
        ],
        ids=["sanitize", "select", "path", "regions", "executor"],
    )
    def test_flag_outside_its_experiment_rejected(self, argv, message, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err


class TestMain:
    def test_edge_experiment_runs_and_prints(self, capsys):
        exit_code = main(["edge", "--scale", "quick", "--seed", "11"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Support-set storage" in captured.out

    def test_figure5_runs(self, capsys):
        exit_code = main(["figure5", "--scale", "quick", "--seed", "11"])
        assert exit_code == 0
        assert "silhouette" in capsys.readouterr().out
