"""Scalability study: does the ADF's behaviour survive bigger fleets?

The paper evaluates exactly 140 MNs.  A system claim like "reduces
communication traffic" should be robust to fleet size, and a grid broker
cares about how the cluster structure grows.  Two sweeps live here:

* :func:`scaling_sweep` multiplies the Table 1 population through the
  *object* harness (2x-4x the paper's fleet) — full fidelity, object
  speed.
* :func:`population_sweep` pushes to 1k-100k+ nodes through the
  *columnar* engine with the fast kernel and the native array mobility
  source, reporting LU rate, reduction and RMSE versus fleet size along
  with stepping throughput.  This is the regime the object path cannot
  reach in reasonable wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_experiment

__all__ = [
    "ScalingPoint",
    "scaling_sweep",
    "PopulationPoint",
    "population_sweep",
    "render_population_table",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One population size of the scaling sweep."""

    factor: int
    node_count: int
    reduction: float
    clusters: float
    rmse_with_le: float
    wall_seconds: float

    def nodes_per_cluster(self) -> float:
        """Average cluster occupancy (moving nodes only)."""
        return self.node_count / self.clusters if self.clusters else 0.0


def scaling_sweep(
    factors: tuple[int, ...] = (1, 2, 4),
    *,
    duration: float = 60.0,
    dth_factor: float = 1.0,
    seed: int = 42,
) -> list[ScalingPoint]:
    """Run the experiment at several population multipliers.

    Each factor multiplies every Table 1 per-region count, so factor 2
    means 280 MNs on the same campus.
    """
    if not factors:
        raise ValueError("need at least one factor")
    base = ExperimentConfig(
        duration=duration, dth_factors=(dth_factor,), seed=seed
    )
    lane_name = f"adf-{dth_factor:g}"
    points: list[ScalingPoint] = []
    for factor in factors:
        config = replace(base, population=base.population.scaled(factor))
        start = time.perf_counter()
        result = run_experiment(config)
        wall = time.perf_counter() - start
        lane = result.lanes[lane_name]
        points.append(
            ScalingPoint(
                factor=factor,
                node_count=result.node_count,
                reduction=result.reduction_vs_ideal(lane_name),
                clusters=lane.filter_summary.get("clusters", 0.0),
                rmse_with_le=lane.mean_rmse(with_le=True),
                wall_seconds=wall,
            )
        )
    return points


@dataclass(frozen=True)
class PopulationPoint:
    """One fleet size of the columnar population sweep."""

    target_nodes: int
    node_count: int
    reduction: float
    lu_rate: float
    ideal_lu_rate: float
    rmse_with_le: float
    wall_seconds: float
    steps: int
    peak_rss_mb: float = 0.0

    @property
    def node_steps_per_second(self) -> float:
        """Stepping throughput: node-steps per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.node_count * self.steps / self.wall_seconds


def _peak_rss_mb() -> float:
    """Process high-water RSS in MB (0.0 where resource is unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0.0
    # ru_maxrss is KB on Linux (bytes on macOS, where this over-reports
    # by 1024x — the sweep is benched on Linux, so keep the simple unit).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def population_sweep(
    node_counts: tuple[int, ...] = (1_000, 10_000, 100_000),
    *,
    duration: float = 10.0,
    dth_factor: float = 1.0,
    seed: int = 42,
    kernel=None,
    campus=None,
    cluster_mode: str = "exact",
    trace_path=None,
    trace_lane: str | None = None,
) -> list[PopulationPoint]:
    """LU rate and estimation error versus fleet size, at array speed.

    Each requested size is realised by scaling the Table 1 per-region
    counts to the nearest multiple of the base fleet for *campus* (the
    default campus, or a generated grid city) and running the columnar
    engine over a native :class:`ColumnarMobilitySource` population (the
    fast kernel by default — bit-parity with the object path is the
    parity test's job, not the scaling study's).

    *cluster_mode* selects the BSAS placement path: ``"exact"`` for the
    bit-faithful sequential sweep, ``"batched"`` for the epoch-chunked
    1M-node mode.  Each point reports the process's peak RSS after its
    run; ``ru_maxrss`` is a high-water mark, so the column is
    non-decreasing down the table and a rung's own footprint is the
    delta from the previous row.

    When *trace_path* is given, the **largest** rung's run records the
    ADF lane's LU stream (or *trace_lane*) as a ``repro-lu-trace`` file
    for serving replay.
    """
    from repro.campus import default_campus
    from repro.core.columnar import ColumnarMobilitySource, run_columnar_experiment
    from repro.core.columnar.kernels import FAST_KERNEL
    from repro.mobility.population import table1_spec

    if not node_counts:
        raise ValueError("need at least one node count")
    kernel = kernel if kernel is not None else FAST_KERNEL
    campus = campus if campus is not None else default_campus()
    base_spec = table1_spec()
    base_size = base_spec.total_for(
        len(campus.roads()), len(campus.buildings())
    )
    lane_name = f"adf-{dth_factor:g}"
    trace_target = max(node_counts) if trace_path is not None else None
    points: list[PopulationPoint] = []
    for target in node_counts:
        if target < 1:
            raise ValueError(f"node counts must be >= 1, got {target}")
        factor = max(1, round(target / base_size))
        source = ColumnarMobilitySource(
            campus, base_spec.scaled(factor), seed=seed
        )
        config = ExperimentConfig(
            duration=duration, dth_factors=(dth_factor,), seed=seed
        )
        recorder = None
        if trace_target is not None and target == trace_target:
            from repro.serving.trace import ColumnarTraceRecorder

            recorder = ColumnarTraceRecorder(trace_lane or lane_name)
            trace_target = None  # record once even with duplicate counts
        start = time.perf_counter()
        if recorder is None:
            result = run_columnar_experiment(
                config,
                campus=campus,
                source=source,
                kernel=kernel,
                cluster_mode=cluster_mode,
            )
        else:
            from repro.core.columnar import ColumnarExperiment

            experiment = ColumnarExperiment(
                config,
                campus=campus,
                source=source,
                kernel=kernel,
                cluster_mode=cluster_mode,
                lu_observer=recorder,
            )
            recorder.bind(
                experiment.node_ids, experiment.resolver.region_ids
            )
            result = experiment.run()
        wall = time.perf_counter() - start
        lane = result.lanes[lane_name]
        ideal = result.lanes["ideal"]
        points.append(
            PopulationPoint(
                target_nodes=target,
                node_count=result.node_count,
                reduction=result.reduction_vs_ideal(lane_name),
                lu_rate=lane.meter.mean_rate(duration),
                ideal_lu_rate=ideal.meter.mean_rate(duration),
                rmse_with_le=lane.mean_rmse(with_le=True),
                wall_seconds=wall,
                steps=config.steps(),
                peak_rss_mb=_peak_rss_mb(),
            )
        )
        if recorder is not None:
            from repro.serving.trace import write_trace

            write_trace(
                recorder.records,
                trace_path,
                meta={
                    "lane": recorder.lane,
                    "seed": seed,
                    "duration": duration,
                    "report_interval": config.report_interval,
                    "node_count": result.node_count,
                    "cluster_mode": cluster_mode,
                    "kernel": kernel.name,
                },
            )
    return points


def render_population_table(points: list[PopulationPoint]) -> str:
    """The population sweep as an aligned text table."""
    header = (
        f"{'nodes':>9}  {'LU/s (adf)':>11}  {'LU/s (ideal)':>12}  "
        f"{'reduction':>9}  {'RMSE w/LE':>9}  {'wall s':>8}  "
        f"{'peak MB':>8}  {'knode-steps/s':>13}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.node_count:>9d}  {p.lu_rate:>11.1f}  {p.ideal_lu_rate:>12.1f}  "
            f"{p.reduction:>8.1%}  {p.rmse_with_le:>9.2f}  {p.wall_seconds:>8.2f}  "
            f"{p.peak_rss_mb:>8.0f}  {p.node_steps_per_second / 1e3:>13.0f}"
        )
    return "\n".join(lines)
