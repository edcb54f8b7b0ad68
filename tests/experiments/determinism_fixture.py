"""Golden-metrics fixture for the paired determinism test.

The perf-optimization pass (spatial region index, shared per-step region
resolution, cached cluster centroids, batched RMSE aggregation) must not
change a single bit of any measured result.  This module defines

* the fixed experiment configuration the fixture locks down,
* :func:`collect_metrics` — the exhaustive metric extraction both the
  fixture generator and the test share, and
* a ``__main__`` entry that (re)generates ``data/determinism_baseline.json``.

The committed JSON was generated from the *pre-optimization* harness
(commit ``cc744ca``), so the test is a true before/after pairing: any
optimization that perturbs traffic counts, RMSE series, region errors,
cluster counts or classification accuracy — even in the last ulp — fails.

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src:. python -m tests.experiments.determinism_fixture
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import ExperimentConfig, MobileGridExperiment
from repro.experiments.results import ExperimentResult

FIXTURE_PATH = Path(__file__).parent / "data" / "determinism_baseline.json"

#: Short but representative: all three ADF factors, the general-DF lanes,
#: and enough steps (20) to cross a cluster reconstruction cycle is not
#: needed — determinism of the per-step pipeline is what is being locked.
FIXTURE_CONFIG = ExperimentConfig(
    duration=20.0,
    seed=42,
    include_general_df=True,
)


def collect_metrics(result: ExperimentResult) -> dict:
    """Every lane metric the paper's figures rest on, at full precision.

    Floats round-trip exactly through ``json`` (repr is shortest
    round-trip), so equality on the loaded structure is bit-equality.
    """
    lanes = {}
    for name, lane in sorted(result.lanes.items()):
        lanes[name] = {
            "kind": lane.kind,
            "dth_factor": lane.dth_factor,
            "traffic_total": lane.meter.total,
            "traffic_bytes": lane.meter.total_bytes,
            "traffic_per_region": dict(sorted(lane.meter.per_region().items())),
            "traffic_per_node": dict(sorted(lane.meter.per_node().items())),
            "rmse_with_le": [list(p) for p in lane.rmse_with_le],
            "rmse_without_le": [list(p) for p in lane.rmse_without_le],
            "region_errors_with_le": [
                lane.region_errors_with_le.road_sq_sum,
                lane.region_errors_with_le.road_count,
                lane.region_errors_with_le.building_sq_sum,
                lane.region_errors_with_le.building_count,
            ],
            "region_errors_without_le": [
                lane.region_errors_without_le.road_sq_sum,
                lane.region_errors_without_le.road_count,
                lane.region_errors_without_le.building_sq_sum,
                lane.region_errors_without_le.building_count,
            ],
            "cluster_series": [list(p) for p in lane.cluster_series],
            "filter_summary": dict(sorted(lane.filter_summary.items())),
        }
    return {
        "config": {
            "duration": FIXTURE_CONFIG.duration,
            "seed": FIXTURE_CONFIG.seed,
            "include_general_df": FIXTURE_CONFIG.include_general_df,
        },
        "node_count": result.node_count,
        "classification_accuracy": result.classification_accuracy,
        "average_fleet_speed": result.average_fleet_speed,
        "handoffs": result.handoffs,
        "road_region_ids": result.road_region_ids,
        "building_region_ids": result.building_region_ids,
        "lanes": lanes,
    }


def generate() -> Path:
    """Run the fixture configuration and write the golden JSON."""
    metrics = collect_metrics(MobileGridExperiment(FIXTURE_CONFIG).run())
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(metrics, indent=1, sort_keys=True))
    return FIXTURE_PATH


if __name__ == "__main__":
    print(f"wrote {generate()}")
