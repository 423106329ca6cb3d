"""Tests for the command-line experiment runner."""

import pytest

from repro.experiments.__main__ import RUNNERS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == ["all"]
        assert args.dvfs_scale == 0.5

    def test_scales_parsed(self):
        args = build_parser().parse_args(
            ["table1", "--dvfs-scale", "0.1", "--hpc-scale", "0.02"]
        )
        assert args.experiments == ["table1"]
        assert args.dvfs_scale == pytest.approx(0.1)

    def test_precision_is_not_an_option(self, capsys):
        """The compile mode is float64, or uint8 with ``--quantized``."""
        assert build_parser().parse_args(["ingest", "--quantized"]).quantized
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["ingest", "--dtype", "float32"])
        assert exit_info.value.code == 2
        assert "--dtype" in capsys.readouterr().err


class TestMain:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in RUNNERS:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["fig99"]) == 2
        assert "Unknown experiments" in capsys.readouterr().err

    def test_runs_table1(self, capsys):
        code = main(
            ["table1", "--dvfs-scale", "0.05", "--hpc-scale", "0.01",
             "--n-estimators", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out


class TestRunnerRegistry:
    def test_every_artifact_has_runner(self):
        # One runner per table/figure of the evaluation + claims + ablations.
        expected = {
            "table1", "fig4", "fig5", "fig7a", "fig7b", "fig8", "fig9a",
            "fig9b", "claims",
        }
        assert expected <= set(RUNNERS)
