"""Print digests of every output of the city-1m run, at two fleet sizes.

Run from the root of a checkout with ``PYTHONPATH=src``:

    PYTHONPATH=src python3 benchmarks/runs/lean-city-step/outputs.py

For the ``city-1m`` configuration (the 12 x 12 grid city, a native
``ColumnarMobilitySource`` fleet, the fast kernel, batched placement,
DTH 1.0, 3 s, seed 1) at 5k and 1M nodes it prints the sha256 of
``render_report`` and of each lane's RMSE series with and without the
Location Estimator, region errors, traffic meter (total, per region, per
node), filter summary and cluster series, then of the run's
classification accuracy, average fleet speed and handoffs.  Two trees
that print the same lines produce the same outputs.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "e2e"))

from workloads import CITY_DURATION, city_map, fleet_spec  # noqa: E402

from repro.core.columnar import ColumnarExperiment, ColumnarMobilitySource  # noqa: E402
from repro.core.columnar.kernels import FAST_KERNEL  # noqa: E402
from repro.experiments import ExperimentConfig  # noqa: E402
from repro.experiments.report import render_report  # noqa: E402

SEED = 1


def digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def main() -> None:
    campus = city_map()
    for nodes in (5_000, 1_000_000):
        source = ColumnarMobilitySource(
            campus, fleet_spec(campus, nodes), seed=SEED
        )
        config = ExperimentConfig(
            duration=CITY_DURATION, dth_factors=(1.0,), seed=SEED
        )
        result = ColumnarExperiment(
            config,
            campus=campus,
            source=source,
            kernel=FAST_KERNEL,
            cluster_mode="batched",
        ).run()
        print(f"{nodes} report {digest(render_report(result))}")
        for name, lane in sorted(result.lanes.items()):
            meter = lane.meter
            parts = {
                "rmse": (list(lane.rmse_with_le), list(lane.rmse_without_le)),
                "region_errors": (
                    vars(lane.region_errors_with_le),
                    vars(lane.region_errors_without_le),
                ),
                "meter": (
                    meter.total,
                    meter.total_bytes,
                    list(meter.per_region().items()),
                    list(meter.per_node().items()),
                ),
                "filter": sorted(lane.filter_summary.items()),
                "clusters": list(lane.cluster_series),
            }
            for part, value in parts.items():
                print(f"{nodes} {name} {part} {digest(value)}")
        fleet = (
            result.node_count,
            result.classification_accuracy,
            result.average_fleet_speed,
            result.handoffs,
        )
        print(f"{nodes} fleet {digest(fleet)}")


if __name__ == "__main__":
    main()
