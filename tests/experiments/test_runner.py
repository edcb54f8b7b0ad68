"""Tests for the parallel sweep/replication runner."""

import dataclasses
import json

import pytest

from repro.experiments import ExperimentConfig, SweepSpec, run_sweep
from repro.experiments.harness import run_experiment
from repro.experiments.io import result_to_dict
from repro.experiments.runner import (
    RunTask,
    _execute_task,
    cell_key,
    load_sweep_spec,
    sweep_spec_from_dict,
)
from repro.mobility.population import PopulationSpec
from repro.util.rng import spawn_seed


def tiny_base(**overrides) -> ExperimentConfig:
    """A 28-node, single-factor config that runs in well under a second."""
    defaults = dict(
        duration=4.0,
        dth_factors=(1.0,),
        population=PopulationSpec(
            road_humans_per_road=1,
            road_vehicles_per_road=1,
            building_stop=1,
            building_random=1,
            building_linear=1,
        ),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_spec():
    return SweepSpec.from_axes(
        {"duration": (3.0, 4.0), "channel_loss": (0.0, 0.01)},
        base=tiny_base(),
        replications=2,
    )


class TestSweepSpec:
    def test_cells_are_cartesian_product_in_axis_order(self, tiny_spec):
        keys = [cell_key(params) for params in tiny_spec.cells()]
        assert keys == [
            "duration=3,channel_loss=0",
            "duration=3,channel_loss=0.01",
            "duration=4,channel_loss=0",
            "duration=4,channel_loss=0.01",
        ]

    def test_no_axes_is_single_base_cell(self):
        spec = SweepSpec(base=tiny_base())
        assert spec.cells() == [{}]
        assert cell_key({}) == "base"

    def test_tasks_apply_overrides_and_derive_seeds(self, tiny_spec):
        tasks = tiny_spec.tasks()
        assert len(tasks) == 4 * 2
        first = tasks[0]
        assert first.config.duration == 3.0
        assert first.config.seed == spawn_seed(
            tiny_spec.base.seed, "sweep/duration=3,channel_loss=0#rep0"
        )
        # Every task gets a distinct seed.
        assert len({t.seed for t in tasks}) == len(tasks)

    def test_population_axis(self):
        spec = SweepSpec.from_axes(
            {"population.building_stop": (1, 2)}, base=tiny_base()
        )
        tasks = spec.tasks()
        assert tasks[0].config.population.building_stop == 1
        assert tasks[1].config.population.building_stop == 2

    def test_unknown_axis_rejected_at_definition_time(self):
        with pytest.raises(ValueError, match="unknown config field"):
            SweepSpec.from_axes({"no_such_knob": (1, 2)}, base=tiny_base())

    def test_seed_axis_rejected(self):
        with pytest.raises(ValueError, match="replications"):
            SweepSpec.from_axes({"seed": (1, 2)}, base=tiny_base())

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_base(), replications=0)

    def test_from_dict_and_file_roundtrip(self, tmp_path):
        data = {
            "axes": {"duration": [3.0, 4.0]},
            "replications": 2,
            "base": {"duration": 4.0, "dth_factors": [1.0]},
        }
        spec = sweep_spec_from_dict(data)
        assert spec.replications == 2
        assert spec.base.dth_factors == (1.0,)

        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        assert load_sweep_spec(path) == spec

        toml_path = tmp_path / "sweep.toml"
        toml_path.write_text(
            "replications = 2\n"
            "[axes]\nduration = [3.0, 4.0]\n"
            "[base]\nduration = 4.0\ndth_factors = [1.0]\n"
        )
        assert load_sweep_spec(toml_path) == spec

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep keys"):
            sweep_spec_from_dict({"grid": {}})


class TestDeterminism:
    def test_worker_process_matches_serial_execution(self, tiny_spec):
        """The same cell yields a bit-identical summary serially and in a
        worker process — seeds derive from (cell, replication) identity,
        never from execution order or process boundaries."""
        serial = run_sweep(tiny_spec, workers=1)
        parallel = run_sweep(tiny_spec, workers=2)
        a = {key: cell.runs for key, cell in serial.cells.items()}
        b = {key: cell.runs for key, cell in parallel.cells.items()}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_sweep_cell_matches_direct_run_experiment(self, tiny_spec):
        task = tiny_spec.tasks()[0]
        direct = json.loads(
            json.dumps(result_to_dict(run_experiment(task.config)))
        )
        via_sweep = run_sweep(tiny_spec, workers=1)
        payload = via_sweep.cells[task.cell_key].runs[0]
        assert payload["result"] == direct

    def test_replications_differ_within_a_cell(self, tiny_spec):
        result = run_sweep(tiny_spec, workers=1)
        cell = next(iter(result.cells.values()))
        totals = {
            run["result"]["lanes"]["ideal"]["total_lus"] for run in cell.runs
        }
        assert len(cell.runs) == 2
        # Different derived seeds -> different mobility -> the ideal lane
        # emits the same LU count but ADF suppression differs.
        reductions = {
            run["result"]["lanes"]["adf-1"]["reduction_vs_ideal"]
            for run in cell.runs
        }
        assert len(reductions) == 2 or len(totals) == 2


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_by_skipping_finished_cells(
        self, tiny_spec, tmp_path
    ):
        out = tmp_path / "sweep"
        full = run_sweep(tiny_spec, out_dir=out, workers=1)
        assert len(full.executed) == 8
        assert (out / "manifest.json").exists()

        # Simulate a kill that lost two runs: delete their checkpoints.
        artifacts = sorted((out / "runs").rglob("rep*.json"))
        assert len(artifacts) == 8
        artifacts[0].unlink()
        artifacts[5].unlink()

        resumed = run_sweep(tiny_spec, out_dir=out, workers=1)
        assert len(resumed.executed) == 2
        assert len(resumed.resumed) == 6

        a = {key: cell.runs for key, cell in full.cells.items()}
        b = {key: cell.runs for key, cell in resumed.cells.items()}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_no_resume_recomputes_everything(self, tiny_spec, tmp_path):
        out = tmp_path / "sweep"
        run_sweep(tiny_spec, out_dir=out, workers=1)
        again = run_sweep(tiny_spec, out_dir=out, workers=1, resume=False)
        assert len(again.executed) == 8
        assert again.resumed == []

    def test_stale_checkpoint_from_other_spec_is_recomputed(
        self, tiny_spec, tmp_path
    ):
        out = tmp_path / "sweep"
        run_sweep(tiny_spec, out_dir=out, workers=1)
        artifact = sorted((out / "runs").rglob("rep*.json"))[0]
        payload = json.loads(artifact.read_text())
        payload["sweep"]["seed"] += 1  # pretend it came from another base seed
        artifact.write_text(json.dumps(payload))

        resumed = run_sweep(tiny_spec, out_dir=out, workers=1)
        assert len(resumed.executed) == 1
        assert len(resumed.resumed) == 7


class TestRetry:
    def test_serial_failure_is_retried_once(self, monkeypatch):
        spec = SweepSpec(base=tiny_base(duration=2.0))
        calls = {"n": 0}
        real = _execute_task

        def flaky(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker death")
            return real(task)

        monkeypatch.setattr("repro.experiments.runner._execute_task", flaky)
        result = run_sweep(spec, workers=1)
        assert calls["n"] == 2
        assert result.retried == ["base#rep0"]
        assert len(result.executed) == 1

    def test_persistent_failure_raises(self, monkeypatch):
        spec = SweepSpec(base=tiny_base(duration=2.0))

        def always_fails(task):
            raise RuntimeError("broken")

        monkeypatch.setattr(
            "repro.experiments.runner._execute_task", always_fails
        )
        with pytest.raises(RuntimeError):
            run_sweep(spec, workers=1)


class TestAggregation:
    def test_cell_summaries_have_mean_and_ci(self, tiny_spec):
        result = run_sweep(tiny_spec, workers=1)
        cell = next(iter(result.cells.values()))
        summaries = cell.summaries()
        assert "reduction(adf-1)" in summaries
        summary = summaries["reduction(adf-1)"]
        assert summary.n == 2
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_render_mentions_every_cell(self, tiny_spec):
        result = run_sweep(tiny_spec, workers=1)
        text = result.render()
        for key in result.cells:
            assert key in text

    def test_telemetry_snapshots_combined_per_cell(self):
        from repro.telemetry import TelemetryConfig

        spec = SweepSpec(
            base=tiny_base(
                duration=3.0, telemetry=TelemetryConfig(enabled=True)
            ),
            replications=2,
        )
        result = run_sweep(spec, workers=1)
        merged = result.cells["base"].telemetry()
        assert merged is not None
        assert merged["runs"] == 2
        assert merged["metrics"]  # counters from both runs folded together

    def test_telemetry_absent_when_disabled(self, tiny_spec):
        result = run_sweep(tiny_spec, workers=1)
        assert result.cells[next(iter(result.cells))].telemetry() is None


class TestWorkerEntry:
    def test_execute_task_writes_checkpoint(self, tmp_path):
        task = RunTask(
            cell_key="base",
            params={},
            replication=0,
            seed=7,
            config=tiny_base(duration=2.0, seed=7),
            checkpoint=str(tmp_path / "runs" / "base" / "rep000.json"),
        )
        payload = _execute_task(task)
        on_disk = json.loads((tmp_path / "runs" / "base" / "rep000.json").read_text())
        assert on_disk == payload
        assert payload["sweep"]["seed"] == 7

    def test_task_fields_cannot_change_after_construction(self):
        # The pool pickles a submitted task lazily on its feeder thread.
        task = RunTask(
            cell_key="base",
            params={},
            replication=0,
            seed=7,
            config=tiny_base(duration=2.0, seed=7),
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.seed = 99
