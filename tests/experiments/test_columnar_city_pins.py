"""Exact pins of the columnar city run and of the native mobility source.

``test_columnar_city_golden.py`` compares totals, the per-region split,
a per-node digest and the RMSE series *sums* (to a relative 1e-12).
These pins hold the same run to the last bit of every collected output,
and the :class:`ColumnarMobilitySource` walk to the last bit of its
state, so a rewrite of an array stage cannot move a single value
unnoticed:

* the golden run: every lane's per-step RMSE series with and without
  the Location Estimator, its region-error sums and counts, its traffic
  meter (totals, per region, per node), its cluster series and filter
  summary, plus the run's classification accuracy, average fleet speed
  and handoffs;
* a small grid-city fleet after 25 one-second steps, in which RMS nodes
  reach their waypoints and pause: positions, velocities, the LMS arc
  and shuttle direction, the RMS targets and pauses, and the generator's
  state.

Each pin is the sha256 of the ``repr`` of plain Python values (floats
repr exactly).  Print fresh digests (only when an *intentional*
behaviour change lands) with::

    PYTHONPATH=src:. python -m tests.experiments.test_columnar_city_pins
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.campus.generator import generate_grid_campus
from repro.core.columnar import ColumnarMobilitySource
from repro.experiments.results import ExperimentResult
from repro.mobility.population import table1_spec
from tests.experiments.test_columnar_city_golden import run_city

CITY_PINS = {
    "rmse_series": "b4940c5b5c685027df2f2af642e3ce631cf2a36176dd698cdc5d10800633d079",
    "region_errors": "f2697e51d23bb9805978ec90fd5f132a17d29c7767b3f6db7b5ef268f6c72842",
    "meters": "8962d4d8c47e78261257c559836d281219c170eb473f6cbd192336de5c557373",
    "clusters": "b6c7d7ffa6448ce522e6cc604c350cea9590ed3de047c1bd1bf2a1da5b7a9786",
    "fleet": "960005572f3402803253e880ef5fd532ec71cc9547e122d1886c63b7dc919172",
}

SOURCE_PINS = {
    "position": "78492a3d890fb6913976eb7dc5a1e59ac7903d039df87a3bb17c00057e61a8b6",
    "velocity": "26509ccddd96233325016bd004445ec48983fae1166ab89b2083dd00152c52bf",
    "linear": "6cd947d6d78a6c1416262c4b0a3dc105d78ee156fd63dad5e3c7ba6afde4c07d",
    "random": "cb0a693b3602b3568217295380b43eb41f1018bf4e658ab60bae15c434f59600",
    "rng": "cfd4fc496aa03a6caf4244ab046004041f02ef1160c20c21e4353c3a79ac3e01",
}

#: Steps of the mobility-source pin and the arrivals they must include.
SOURCE_STEPS = 25


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def city_parts(result: ExperimentResult) -> dict[str, object]:
    """The golden run's outputs, grouped as :data:`CITY_PINS` keys them."""
    lanes = sorted(result.lanes.items())
    return {
        "rmse_series": [
            (name, list(lane.rmse_with_le), list(lane.rmse_without_le))
            for name, lane in lanes
        ],
        "region_errors": [
            (
                name,
                vars(lane.region_errors_with_le),
                vars(lane.region_errors_without_le),
            )
            for name, lane in lanes
        ],
        "meters": [
            (
                name,
                lane.meter.total,
                lane.meter.total_bytes,
                list(lane.meter.per_region().items()),
                list(lane.meter.per_node().items()),
            )
            for name, lane in lanes
        ],
        "clusters": [
            (name, list(lane.cluster_series), sorted(lane.filter_summary.items()))
            for name, lane in lanes
        ],
        "fleet": (
            result.node_count,
            result.classification_accuracy,
            result.average_fleet_speed,
            result.handoffs,
        ),
    }


def walked_source() -> tuple[ColumnarMobilitySource, object, int, int]:
    """A 740-node fleet on a 3 x 3 city of 20 m blocks after
    :data:`SOURCE_STEPS` steps; also the arrivals seen and the most
    nodes paused at once."""
    campus = generate_grid_campus(
        blocks_x=3, blocks_y=3, block_size=20.0, rng=np.random.default_rng(5)
    )
    source = ColumnarMobilitySource(campus, table1_spec().scaled(4), seed=3)
    state = source.build_state()
    arrivals = paused = 0
    for _ in range(SOURCE_STEPS):
        target = source._target_x.copy()
        source.advance(state, 1.0)
        arrivals += int(np.count_nonzero(target != source._target_x))
        paused = max(paused, int(np.count_nonzero(source._pause > 0.0)))
    return source, state, arrivals, paused


def source_parts(source: ColumnarMobilitySource, state) -> dict[str, object]:
    """The walked source's state, grouped as :data:`SOURCE_PINS` keys it."""
    return {
        "position": (state.x.tolist(), state.y.tolist()),
        "velocity": (state.vx.tolist(), state.vy.tolist()),
        "linear": (source._arc.tolist(), source._direction.tolist()),
        "random": (
            source._target_x.tolist(),
            source._target_y.tolist(),
            source._pause.tolist(),
        ),
        "rng": source._rng.bit_generator.state,
    }


@pytest.fixture(scope="module")
def city() -> dict[str, object]:
    return city_parts(run_city())


@pytest.fixture(scope="module")
def walked():
    return walked_source()


@pytest.mark.parametrize("part", sorted(CITY_PINS))
def test_city_run(city, part):
    assert _digest(city[part]) == CITY_PINS[part]


def test_walk_has_arrivals_and_pauses(walked):
    _, _, arrivals, paused = walked
    assert arrivals > 100
    assert paused > 10


@pytest.mark.parametrize("part", sorted(SOURCE_PINS))
def test_source_state(walked, part):
    source, state, _, _ = walked
    assert _digest(source_parts(source, state)[part]) == SOURCE_PINS[part]


if __name__ == "__main__":
    for name, value in city_parts(run_city()).items():
        print(f"city {name}: {_digest(value)}")
    source, state, arrivals, paused = walked_source()
    print(f"walk: {arrivals} arrivals, at most {paused} paused")
    for name, value in source_parts(source, state).items():
        print(f"source {name}: {_digest(value)}")
