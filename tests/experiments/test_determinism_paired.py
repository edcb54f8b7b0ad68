"""Paired determinism: the optimized pipeline vs. the pre-optimization golden run.

``data/determinism_baseline.json`` was generated by the *pre-optimization*
harness (commit ``cc744ca``) from the exact configuration in
:mod:`tests.experiments.determinism_fixture`.  Re-running that configuration
through the current code and comparing every lane metric at full float
precision proves the perf work (spatial index, inlined hot paths, cached
centroids, batched RMSE) is bit-identical, not merely statistically close.

The comparison round-trips the fresh metrics through ``json`` first so both
sides see the same representation (floats survive the round-trip exactly).
"""

import json

from repro.experiments.harness import MobileGridExperiment

from tests.experiments.determinism_fixture import (
    FIXTURE_CONFIG,
    FIXTURE_PATH,
    collect_metrics,
)


def object_metrics() -> dict:
    """The fixture configuration's metrics from the object harness (the
    reference; ``run_experiment`` runs this config on the columnar
    engine)."""
    result = MobileGridExperiment(FIXTURE_CONFIG).run()
    return json.loads(json.dumps(collect_metrics(result)))


def test_metrics_bit_identical_to_golden_baseline():
    current = object_metrics()
    baseline = json.loads(FIXTURE_PATH.read_text())
    # Compare section by section so a failure names the drifting metric
    # instead of dumping two multi-thousand-line dicts.
    assert current.keys() == baseline.keys()
    for key in baseline:
        if key == "lanes":
            continue
        assert current[key] == baseline[key], f"top-level metric {key!r} drifted"
    assert current["lanes"].keys() == baseline["lanes"].keys()
    for lane, metrics in baseline["lanes"].items():
        for metric, value in metrics.items():
            assert current["lanes"][lane][metric] == value, (
                f"lane {lane!r} metric {metric!r} drifted"
            )


def test_same_config_runs_are_identical():
    """Two in-process runs of the same seed agree with each other too."""
    assert object_metrics() == object_metrics()
