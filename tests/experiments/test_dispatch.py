"""``run_experiment`` picks its engine with ``unsupported_reason``.

A config the columnar engine supports must never build the object
harness (so the studies get the fast engine), and every config it does
not support must (so nothing the columnar engine ignores is dropped).
"""

from dataclasses import replace

import pytest

from repro.core.columnar.engine import unsupported_reason
from repro.experiments import ExperimentConfig, harness
from repro.faults import FaultSchedule, NodeChurn
from repro.mobility.population import PopulationSpec
from repro.telemetry import TelemetryConfig

TINY = ExperimentConfig(
    duration=3.0,
    dth_factors=(1.0,),
    population=PopulationSpec(
        road_humans_per_road=1,
        road_vehicles_per_road=1,
        building_stop=1,
        building_random=1,
        building_linear=1,
    ),
)


@pytest.fixture
def object_builds(monkeypatch):
    """Counts the ``MobileGridExperiment`` instances ``run_experiment`` makes."""
    built = []

    class Spy(harness.MobileGridExperiment):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "MobileGridExperiment", Spy)
    return built


@pytest.mark.parametrize(
    "config",
    [
        TINY,
        replace(TINY, include_general_df=True, dth_factors=(0.75, 1.25)),
        replace(TINY, faults=FaultSchedule()),
    ],
    ids=["default", "gdf-lanes", "empty-schedule"],
)
def test_supported_config_never_builds_the_object_harness(object_builds, config):
    assert unsupported_reason(config) is None
    harness.run_experiment(config)
    assert object_builds == []


@pytest.mark.parametrize(
    "config, reason",
    [
        (replace(TINY, telemetry=TelemetryConfig(enabled=True)), "telemetry"),
        (replace(TINY, channel_loss=0.1), "lossless"),
        (replace(TINY, channel_latency=0.05), "lossless"),
        (
            replace(
                TINY,
                faults=FaultSchedule(
                    (NodeChurn(start=0.0, duration=4.0, hazard=0.2, mean_outage=1.0),)
                ),
            ),
            "fault schedules",
        ),
    ],
    ids=["telemetry", "lossy", "latency", "churn"],
)
def test_unsupported_config_always_builds_the_object_harness(
    object_builds, config, reason
):
    assert reason in unsupported_reason(config)
    harness.run_experiment(config)
    assert len(object_builds) == 1
