"""Same-seed golden of a ~20k-node grid-city run on the columnar engine.

The parity tests pin the columnar engine to the object harness on the
140-node default campus; this one pins the configuration the
population-scaling rung actually runs — a generated 12 x 12-block grid
city, a native :class:`ColumnarMobilitySource` fleet, the fast kernel and
batched cluster placement — at a size where region resolution sees
hundreds of occupied grid cells and the meters carry ~20k per-node
counts.  Per-lane totals, the per-region split, the RMSE series sums,
the per-node counts (as a digest) and the handoffs are compared with
``data/columnar_city_golden.json``.

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src:. python -m tests.experiments.test_columnar_city_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.campus.generator import generate_grid_campus
from repro.core.columnar import ColumnarMobilitySource, run_columnar_experiment
from repro.core.columnar.kernels import FAST_KERNEL
from repro.experiments import ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.mobility.population import table1_spec

GOLDEN_PATH = Path(__file__).parent / "data" / "columnar_city_golden.json"

TARGET_NODES = 20_000
CONFIG = ExperimentConfig(
    duration=8.0, dth_factors=(0.75, 1.25), include_general_df=True, seed=42
)


def run_city() -> ExperimentResult:
    """The golden run: the 12 x 12 city (map seed 42), batched placement."""
    campus = generate_grid_campus(
        blocks_x=12, blocks_y=12, block_size=150.0, rng=np.random.default_rng(42)
    )
    base = table1_spec()
    factor = round(
        TARGET_NODES / base.total_for(len(campus.roads()), len(campus.buildings()))
    )
    source = ColumnarMobilitySource(campus, base.scaled(factor), seed=CONFIG.seed)
    return run_columnar_experiment(
        CONFIG,
        campus=campus,
        source=source,
        kernel=FAST_KERNEL,
        cluster_mode="batched",
    )


def collect(result: ExperimentResult) -> dict:
    lanes = {}
    for name, lane in sorted(result.lanes.items()):
        per_node = json.dumps(list(lane.meter.per_node().items()))
        lanes[name] = {
            "total": lane.meter.total,
            "total_bytes": lane.meter.total_bytes,
            "per_region": lane.meter.per_region(),
            "per_node_sha256": hashlib.sha256(per_node.encode()).hexdigest(),
            "rmse_with_le_sum": float(lane.rmse_with_le.values.sum()),
            "rmse_without_le_sum": float(lane.rmse_without_le.values.sum()),
        }
    return {
        "node_count": result.node_count,
        "handoffs": result.handoffs,
        "lanes": lanes,
    }


@pytest.fixture(scope="module")
def golden_and_run():
    return json.loads(GOLDEN_PATH.read_text()), collect(run_city())


def test_fleet_and_handoffs(golden_and_run):
    golden, got = golden_and_run
    assert got["node_count"] == golden["node_count"]
    assert got["handoffs"] == golden["handoffs"]


def test_lane_totals_and_per_node_counts(golden_and_run):
    golden, got = golden_and_run
    assert list(got["lanes"]) == list(golden["lanes"])
    for name, want in golden["lanes"].items():
        lane = got["lanes"][name]
        assert lane["total"] == want["total"], name
        assert lane["total_bytes"] == want["total_bytes"], name
        assert lane["per_node_sha256"] == want["per_node_sha256"], name


def test_per_region_split(golden_and_run):
    golden, got = golden_and_run
    for name, want in golden["lanes"].items():
        # Same keys in the same (region-code) order, same counts.
        assert list(got["lanes"][name]["per_region"].items()) == list(
            want["per_region"].items()
        ), name


def test_rmse_series_sums(golden_and_run):
    golden, got = golden_and_run
    for name, want in golden["lanes"].items():
        lane = got["lanes"][name]
        for key in ("rmse_with_le_sum", "rmse_without_le_sum"):
            assert lane[key] == pytest.approx(want[key], rel=1e-12), (name, key)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(collect(run_city()), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
