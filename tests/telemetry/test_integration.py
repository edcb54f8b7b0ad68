"""End-to-end: telemetry wired through a real experiment run."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import MobileGridExperiment, run_experiment
from repro.experiments.io import result_to_dict
from repro.telemetry import TelemetryConfig


def small_config(**overrides):
    defaults = dict(
        duration=20.0,
        dth_factors=(1.0,),
        telemetry=TelemetryConfig(enabled=True, sample_interval=5.0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def instrumented_result():
    return run_experiment(small_config())


class TestWiring:
    def test_disabled_run_has_no_snapshot(self):
        result = run_experiment(
            ExperimentConfig(duration=10.0, dth_factors=(1.0,))
        )
        assert result.telemetry is None

    def test_snapshot_sections(self, instrumented_result):
        snap = instrumented_result.telemetry
        assert set(snap) == {"metrics", "samples", "spans", "events"}

    def test_every_layer_reports(self, instrumented_result):
        layers = {
            name.split(".", 1)[0]
            for name in instrumented_result.telemetry["metrics"]
        }
        assert {"sim", "net", "broker", "adf"} <= layers

    def test_sim_step_spans_recorded(self, instrumented_result):
        spans = instrumented_result.telemetry["spans"]
        assert spans["sim.activity:experiment:step"]["count"] == 20

    def test_counts_match_lane_results(self, instrumented_result):
        metrics = instrumented_result.telemetry["metrics"]
        lane = instrumented_result.lanes["adf-1"]
        transmitted = metrics["adf.lu_transmitted{filter=adf(1av)}"]["value"]
        assert transmitted == lane.filter_summary["transmitted"]
        received = metrics["broker.lu_received{broker=adf-1/le-on}"]["value"]
        assert received == lane.total_lus

    def test_samples_ride_the_sim_grid(self, instrumented_result):
        samples = instrumented_result.telemetry["samples"]
        series = samples["sim.events_executed"]
        assert series["times"] == [5.0, 10.0, 15.0, 20.0]

    def test_snapshot_in_result_dict(self, instrumented_result):
        out = result_to_dict(instrumented_result)
        assert "telemetry" in out
        json.dumps(out["telemetry"])


class TestLabelCardinality:
    def test_adf_metric_keys_do_not_grow_with_run_length(self):
        """Every ``adf.*`` label is bounded: a 4x longer run (more
        reclusters, more cluster ids) registers exactly the same keys."""

        def adf_keys(duration):
            snap = run_experiment(small_config(duration=duration)).telemetry
            return {name for name in snap["metrics"] if name.startswith("adf.")}

        short = adf_keys(60.0)
        assert adf_keys(240.0) == short
        assert "adf.suppressed_cluster_size{filter=adf(1av)}" in short


class TestDeterminism:
    def test_same_seed_same_metrics_and_samples(self):
        def deterministic_sections():
            snap = run_experiment(small_config(duration=15.0)).telemetry
            return json.dumps(
                {"metrics": snap["metrics"], "samples": snap["samples"]},
                sort_keys=True,
            )

        assert deterministic_sections() == deterministic_sections()

    def test_different_seed_differs(self):
        a = run_experiment(small_config(duration=15.0, seed=1)).telemetry
        b = run_experiment(small_config(duration=15.0, seed=2)).telemetry
        assert a["metrics"] != b["metrics"]


class TestLaneAccessor:
    def test_lane_by_name(self):
        experiment = MobileGridExperiment(
            ExperimentConfig(duration=10.0, dth_factors=(1.0,))
        )
        assert experiment.lane("ideal") is experiment.lanes[0]
        assert experiment.lane("adf-1").name == "adf-1"

    def test_unknown_lane_raises_with_names(self):
        experiment = MobileGridExperiment(
            ExperimentConfig(duration=10.0, dth_factors=(1.0,))
        )
        with pytest.raises(KeyError, match="adf-1"):
            experiment.lane("nope")
