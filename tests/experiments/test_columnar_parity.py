"""Golden parity: the columnar engine against the object harness.

The determinism fixture (``data/determinism_baseline.json``) records
every lane metric of the reference ``MobileGridExperiment`` at full
float precision.  The columnar engine in *exact* kernel mode must
reproduce all of them bit-for-bit — traffic totals, per-region and
per-node counts, both RMSE series, region error sums, cluster series,
filter summaries, classification accuracy and fleet speed.  A fresh
object-harness run on a *different* configuration is compared too, so
parity does not silently narrow to the one committed fixture.
"""

from __future__ import annotations

import json

import pytest

from repro.core.columnar import (
    ColumnarExperiment,
    ObjectMobilitySource,
    run_columnar_experiment,
)
from repro.core.columnar.kernels import EXACT_KERNEL, FAST_KERNEL
from repro.experiments import ExperimentConfig, run_experiment
from repro.telemetry import TelemetryConfig
from tests.experiments.determinism_fixture import (
    FIXTURE_CONFIG,
    FIXTURE_PATH,
    collect_metrics,
)


def _normalized(metrics: dict) -> dict:
    """JSON round-trip: float repr is shortest-round-trip, so equality on
    the normalized structure is bit-equality."""
    return json.loads(json.dumps(metrics, sort_keys=True))


class TestGoldenParity:
    def test_exact_kernel_matches_committed_fixture_bit_identically(self):
        result = run_columnar_experiment(FIXTURE_CONFIG, kernel=EXACT_KERNEL)
        got = _normalized(collect_metrics(result))
        want = json.loads(FIXTURE_PATH.read_text())
        assert got == want

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(
                duration=12.0,
                seed=7,
                dth_factors=(0.9, 1.1),
                include_general_df=True,
            ),
            # Cluster reconstructions mid-run, on the weighted BSAS branch.
            ExperimentConfig(
                duration=65.0,
                seed=9,
                dth_factors=(1.0,),
                direction_weight=0.5,
                recluster_interval=20.0,
            ),
            # Reconstructions on the unweighted branch, with the GDF lanes.
            ExperimentConfig(
                duration=65.0,
                seed=9,
                dth_factors=(0.75, 1.25),
                recluster_interval=20.0,
                include_general_df=True,
            ),
        ],
        ids=["short", "reclusters-weighted", "reclusters-gdf"],
    )
    def test_exact_kernel_matches_live_object_harness_off_fixture(self, config):
        # Different seeds, durations and factor sets than the fixture: the
        # engines must agree on configurations nobody hand-tuned for.
        reference = collect_metrics(run_experiment(config))
        columnar = collect_metrics(
            run_columnar_experiment(config, kernel=EXACT_KERNEL)
        )
        assert _normalized(columnar) == _normalized(reference)

    def test_interval_not_dividing_duration(self):
        # The schedule fires at interval multiples while they stay within
        # the duration; both engines must agree on the step count.
        config = ExperimentConfig(duration=5.0, report_interval=1.5, seed=3)
        reference = collect_metrics(run_experiment(config))
        columnar = collect_metrics(
            run_columnar_experiment(config, kernel=EXACT_KERNEL)
        )
        assert _normalized(columnar) == _normalized(reference)


class TestFastKernel:
    def test_fast_kernel_runs_and_agrees_on_exact_counters(self):
        result = run_columnar_experiment(FIXTURE_CONFIG, kernel=FAST_KERNEL)
        assert result.node_count == 140
        assert set(result.lanes) == {
            "ideal",
            "adf-0.75",
            "adf-1",
            "adf-1.25",
            "gdf-0.75",
            "gdf-1",
            "gdf-1.25",
        }
        # The ideal lane transmits every node every step regardless of
        # kernel numerics: 140 nodes x 20 steps.
        assert result.lanes["ideal"].meter.total == 140 * 20
        for lane in result.lanes.values():
            assert len(lane.rmse_with_le) == 20
            assert all(v >= 0.0 for _, v in lane.rmse_with_le)

    def test_fast_kernel_traffic_close_to_exact(self):
        exact = run_columnar_experiment(FIXTURE_CONFIG, kernel=EXACT_KERNEL)
        fast = run_columnar_experiment(FIXTURE_CONFIG, kernel=FAST_KERNEL)
        for name, lane in exact.lanes.items():
            total = lane.meter.total
            assert abs(fast.lanes[name].meter.total - total) <= max(
                5, total * 0.02
            )


class TestEngineValidation:
    def test_rejects_telemetry(self):
        config = ExperimentConfig(
            duration=2.0, telemetry=TelemetryConfig(enabled=True)
        )
        with pytest.raises(ValueError, match="telemetry"):
            ColumnarExperiment(config)

    def test_rejects_lossy_channel(self):
        with pytest.raises(ValueError, match="lossless"):
            ColumnarExperiment(ExperimentConfig(duration=2.0, channel_loss=0.1))

    def test_rejects_latency(self):
        with pytest.raises(ValueError, match="lossless"):
            ColumnarExperiment(
                ExperimentConfig(duration=2.0, channel_latency=0.5)
            )

    def test_custom_source_round_trip(self):
        # An explicit ObjectMobilitySource is the parity configuration the
        # default constructor builds internally; both must agree.
        from repro.campus import default_campus
        from repro.mobility.population import build_population
        from repro.util.rng import RngRegistry

        config = ExperimentConfig(duration=3.0, seed=11)
        campus = default_campus()
        nodes = build_population(campus, config.population, RngRegistry(11))
        explicit = run_columnar_experiment(
            config,
            campus=campus,
            source=ObjectMobilitySource(nodes),
            kernel=EXACT_KERNEL,
        )
        default = run_columnar_experiment(config, kernel=EXACT_KERNEL)
        assert _normalized(collect_metrics(explicit)) == _normalized(
            collect_metrics(default)
        )
