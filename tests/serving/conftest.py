"""Shared fixtures for the serving-layer tests."""

import pytest

from repro.experiments import ExperimentConfig
from repro.mobility.population import PopulationSpec
from repro.serving import record_columnar_trace


def tiny_config(duration=15.0, seed=11):
    """A reduced-population experiment config for fast trace capture."""
    return ExperimentConfig(
        duration=duration,
        seed=seed,
        population=PopulationSpec(
            road_humans_per_road=1,
            road_vehicles_per_road=1,
            building_stop=1,
            building_random=1,
            building_linear=1,
        ),
    )


@pytest.fixture(scope="session")
def tiny_trace():
    """One recorded (meta, records) pair, shared across the session."""
    return record_columnar_trace(tiny_config())
