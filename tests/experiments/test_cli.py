"""Tests for the CLI."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Road" in out and "Building" in out

    def test_report_short_run(self, capsys):
        assert main(["report", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out

    @pytest.mark.parametrize("target", ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"])
    def test_each_figure_target(self, capsys, target):
        assert main([target, "--duration", "10"]) == 0
        assert capsys.readouterr().out.strip()

    def test_general_df_flag(self, capsys):
        assert main(["fig4", "--duration", "5", "--general-df"]) == 0
        assert "gdf-1" in capsys.readouterr().out

    def test_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["figure-99"])

    def test_seed_flag(self, capsys):
        assert main(["fig5", "--duration", "5", "--seed", "9"]) == 0

    def test_map_target(self, capsys):
        assert main(["map"]) == 0
        out = capsys.readouterr().out
        assert "B4" in out

    def test_confusion_target(self, capsys):
        assert main(["confusion", "--duration", "25"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_energy_target(self, capsys):
        assert main(["energy", "--duration", "8"]) == 0
        assert "saved vs ideal" in capsys.readouterr().out

    def test_replicate_target(self, capsys):
        assert main(["replicate", "--duration", "8", "--seeds", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "95% CI" in out and "n=2" in out

    def test_plot_flag(self, capsys):
        assert main(["fig4", "--duration", "8", "--plot"]) == 0
        assert "└" in capsys.readouterr().out

    def test_fig6_plot(self, capsys):
        assert main(["fig6", "--duration", "8", "--plot"]) == 0
        assert "█" in capsys.readouterr().out

    def test_export_flags(self, capsys, tmp_path):
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        assert main([
            "fig5", "--duration", "6",
            "--export-json", str(json_path),
            "--export-csv", str(csv_path),
        ]) == 0
        assert json_path.exists() and csv_path.exists()

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "exp.toml"
        config.write_text("dth_factors = [1.0]\n")
        assert main([
            "fig4", "--duration", "6", "--config", str(config)
        ]) == 0
        out = capsys.readouterr().out
        assert "adf-1:" in out
        assert "adf-0.75" not in out


class TestTargetListing:
    def test_list_targets_flag(self, capsys):
        assert main(["--list-targets"]) == 0
        out = capsys.readouterr().out
        assert "available targets:" in out
        for target in ("report", "serving", "sweep", "lint"):
            assert f"\n  {target}" in out

    def test_bare_invocation_lists_targets(self, capsys):
        assert main([]) == 0
        assert "available targets:" in capsys.readouterr().out

    def test_every_target_has_a_description(self, capsys):
        assert main(["--list-targets"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            name, _, description = line.strip().partition("  ")
            assert description.strip(), f"target {name} lacks a description"


class TestServingCli:
    def test_record_then_replay(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "serving", "--smoke", "--record", str(trace),
        ]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main([
            "serving", "--replay", str(trace), "--rate", "3000",
            "--shards", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out and "p99=" in out

    def test_smoke_exports_deterministic_report(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["serving", "--smoke", "--export-json", str(a)]) == 0
        assert main(["serving", "--smoke", "--export-json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        import json

        report = json.loads(a.read_text())
        assert report["latency_p99"] > 0.0
        assert "shed_rate" in report
        assert (
            "serving.ingest.latency{service=serving}" in report["metrics"]
        )

    def test_standalone_record(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main([
            "serving", "--record", str(trace), "--duration", "5",
        ]) == 0
        assert trace.exists()
        assert "wrote" in capsys.readouterr().out

    def test_mode_required(self, capsys):
        assert main(["serving"]) == 2
        assert "needs --record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, reason",
        [
            ("lossy.toml", "channel_loss = 0.1\n", "lossless"),
            ("faulted.json", '{"faults": [{"kind": "outage"}]}', "fault schedules"),
        ],
    )
    def test_record_refuses_an_unsupported_config(
        self, capsys, tmp_path, name, text, reason
    ):
        """The recorder runs on the columnar engine: a config it cannot
        run exits 2 with the one-line reason, not a traceback."""
        config = tmp_path / name
        config.write_text(text)
        trace = tmp_path / "t.trace"
        assert main([
            "serving", "--record", str(trace), "--duration", "5",
            "--config", str(config),
        ]) == 2
        err = capsys.readouterr().err
        assert reason in err and len(err.splitlines()) == 1
        assert not trace.exists()


class TestSweepCli:
    GRID = (
        'replications = 1\n'
        '[axes]\nduration = [2.0, 3.0]\n'
        '[base]\nduration = 2.0\ndth_factors = [1.0]\n'
        '[base.population]\n'
        'road_humans_per_road = 1\nroad_vehicles_per_road = 0\n'
        'building_stop = 1\nbuilding_random = 0\nbuilding_linear = 0\n'
    )

    def test_sweep_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "sweep.toml"
        grid.write_text(self.GRID)
        out = tmp_path / "out"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cell duration=2" in text and "cell duration=3" in text
        assert "2 run(s) executed" in text
        assert (out / "manifest.json").exists()

    def test_sweep_resumes_from_checkpoints(self, capsys, tmp_path):
        grid = tmp_path / "sweep.toml"
        grid.write_text(self.GRID)
        out = tmp_path / "out"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
        assert "0 run(s) executed, 2 resumed" in capsys.readouterr().out

    def test_sweep_inline_axis_and_replications(self, capsys, tmp_path):
        grid = tmp_path / "sweep.toml"
        grid.write_text(self.GRID)
        assert (
            main(
                [
                    "sweep",
                    "--grid", str(grid),
                    "--set", "duration=2",
                    "--set", "channel_loss=0,0.01",
                    "--replications", "2",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "channel_loss=0.01" in text
        assert "n=2" in text
