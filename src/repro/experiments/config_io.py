"""Experiment configuration files (TOML or JSON).

Lets a user pin an experiment in version control::

    # experiment.toml
    duration = 1800.0
    dth_factors = [0.75, 1.0, 1.25]
    seed = 7
    [population]
    road_humans_per_road = 5
    building_stop = 5

Unknown keys raise — silently ignored configuration is how reproductions
rot.
"""

from __future__ import annotations

import dataclasses
import json
import tomllib
from pathlib import Path
from typing import Any

from repro.experiments.config import ExperimentConfig
from repro.mobility.population import PopulationSpec

__all__ = ["config_from_dict", "load_config", "apply_overrides", "read_data_file"]

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_POPULATION_FIELDS = {f.name for f in dataclasses.fields(PopulationSpec)}


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from plain data.

    ``population`` may be a nested mapping of :class:`PopulationSpec`
    fields (velocity bands keep their defaults).  Any unknown key raises
    ``ValueError``.
    """
    data = dict(data)
    population_data = data.pop("population", None)
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "dth_factors" in data:
        data["dth_factors"] = tuple(data["dth_factors"])
    kwargs: dict[str, Any] = dict(data)
    if population_data is not None:
        bad = set(population_data) - _POPULATION_FIELDS
        if bad:
            raise ValueError(f"unknown population keys: {sorted(bad)}")
        kwargs["population"] = PopulationSpec(**population_data)
    return ExperimentConfig(**kwargs)


def apply_overrides(
    config: ExperimentConfig, params: dict[str, Any]
) -> ExperimentConfig:
    """Return *config* with sweep-axis *params* applied.

    Keys are :class:`ExperimentConfig` field names, or dotted
    ``population.<field>`` names for mobility knobs (e.g.
    ``population.road_vehicles_per_road``).  Unknown keys raise — a
    silently ignored sweep axis would make every cell identical.
    """
    top: dict[str, Any] = {}
    population: dict[str, Any] = {}
    for key, value in params.items():
        if key.startswith("population."):
            field = key.split(".", 1)[1]
            if field not in _POPULATION_FIELDS:
                raise ValueError(f"unknown population field {field!r}")
            population[field] = value
        elif key == "population":
            raise ValueError(
                "override individual 'population.<field>' keys, "
                "not the whole population"
            )
        elif key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config field {key!r}")
        else:
            top[key] = value
    if "dth_factors" in top:
        top["dth_factors"] = tuple(top["dth_factors"])
    if population:
        top["population"] = dataclasses.replace(config.population, **population)
    return dataclasses.replace(config, **top)


def read_data_file(path: str | Path) -> dict[str, Any]:
    """Parse a ``.toml`` or ``.json`` file by its suffix."""
    path = Path(path)
    if path.suffix == ".toml":
        return tomllib.loads(path.read_text())
    if path.suffix == ".json":
        return json.loads(path.read_text())
    raise ValueError(f"unsupported file format {path.suffix!r}: {path}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a config from a ``.toml`` or ``.json`` file."""
    return config_from_dict(read_data_file(path))
