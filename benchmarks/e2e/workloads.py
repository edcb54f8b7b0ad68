"""The four end-to-end workloads: set-up, timed phase and correctness checks.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(timed as ``setup_s``) and runs the user-visible job in
:meth:`Workload.run`, which returns an :class:`Outcome` holding only
scalars, so nothing large outlives a repetition.  Every repetition of a
run uses the same seed; the outputs of all repetitions must agree
(``Outcome.digest``), and each one is checked against the invariants the
paper and the serving layer promise (``Outcome.problems``).

Sizes are scaled so one repetition takes a few seconds on a 2-core
machine and a run holds several repetitions; ``SMOKE`` shrinks every
workload for the tests.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.serving.trace as serving_trace
from repro.campus import Campus, default_campus
from repro.campus.generator import generate_grid_campus
from repro.core.columnar import ColumnarExperiment, ColumnarMobilitySource
from repro.core.columnar.kernels import FAST_KERNEL
from repro.experiments import ExperimentConfig
from repro.experiments.harness import MobileGridExperiment
from repro.experiments.report import render_report
from repro.experiments.results import ExperimentResult
from repro.mobility.population import PopulationSpec, table1_spec
from repro.serving import (
    DurabilityConfig,
    DurabilityManager,
    ReplayConfig,
    ServingConfig,
    record_columnar_trace,
    replay_trace_full,
    write_trace,
)

#: Open-loop replay at 100k msg/s, below the 164k msg/s drain ceiling
#: (4 shards x 2048 records per 50 ms flush), so neither replay sheds.
SERVING = ServingConfig(
    shards=4, queue_capacity=4096, batch_size=2048, flush_interval=0.05
)
REPLAY_RATE = 100_000.0

#: The paper's claim: ADF cuts LU traffic by about half.
PAPER_REDUCTION = (0.45, 0.55)

#: The grid city's layout is part of the workload, not of the seed: the
#: fleet size (and so the memory footprint) stays the same on every seed.
CITY_BLOCKS = 12
CITY_BLOCK_SIZE = 150.0
CITY_MAP_SEED = 42

#: Simulated seconds of city-1m, three reporting intervals, at every size.
CITY_DURATION = 3.0

#: Per-layer outcome counts every workload reports (zero where idle).
COUNT_NAMES: tuple[str, ...] = (
    "core.transmit_ratio",
    "broker.rmse_m",
    "serving.applied",
    "serving.duplicates",
    "serving.reordered",
    "serving.batches",
    "serving.ingest_p99_s",
    "serving.ingest_n",
    "durability.snapshots",
    "durability.wal_bytes",
)


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the four workloads, with its check references."""

    paper_duration: float
    city_nodes: int
    #: adf-1 (reduction, RMSE with LE) on city-1m at the commit that
    #: defined the benchmark, checked to +-0.02 abs and +-15 % rel.  Seeds
    #: 1-9 give reductions of 0.349-0.370 and RMSEs of 0.259-0.261.
    city_reference: tuple[float, float]
    wal_nodes: int
    wal_duration: float
    snapshot_every: int
    sweep_factor: int
    sweep_duration: float


FULL = Sizes(
    paper_duration=120.0,
    city_nodes=1_000_000,
    city_reference=(0.359, 0.260),
    wal_nodes=12_500,
    wal_duration=5.0,
    snapshot_every=8_192,
    sweep_factor=2,
    sweep_duration=300.0,
)

SMOKE = Sizes(
    paper_duration=30.0,
    city_nodes=5_000,
    city_reference=(0.3674, 0.2501),
    wal_nodes=2_000,
    wal_duration=3.0,
    snapshot_every=512,
    sweep_factor=1,
    sweep_duration=30.0,
)


@dataclass
class Outcome:
    """What one repetition of a workload measured and produced."""

    #: The whole timed phase, in seconds.
    wall_s: float
    #: The part of ``wall_s`` that handles the LUs counted in ``msgs``.
    work_s: float
    #: LUs handled: node-steps for a simulation (every node reports once
    #: per step), trace records for a replay.
    msgs: int
    #: Handled LUs that were refused (shed), out of ``msgs``.
    failed: int
    counts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Fingerprint of the outputs; every repetition of a run must match.
    digest: str = ""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def city_map() -> Campus:
    """The fixed 12 x 12-block grid city of the columnar workloads."""
    return generate_grid_campus(
        blocks_x=CITY_BLOCKS,
        blocks_y=CITY_BLOCKS,
        block_size=CITY_BLOCK_SIZE,
        rng=np.random.default_rng(CITY_MAP_SEED),
    )


def fleet_spec(campus: Campus, target_nodes: int) -> PopulationSpec:
    """Table 1 scaled to the multiple of the campus's base fleet nearest
    *target_nodes* (the ``population-scaling`` rule)."""
    base = table1_spec()
    base_size = base.total_for(len(campus.roads()), len(campus.buildings()))
    return base.scaled(max(1, round(target_nodes / base_size)))


def adf_counts(result: ExperimentResult) -> dict[str, float]:
    """The adf-1 lane's transmit ratio and RMSE with the Location Estimator."""
    lane = result.lanes["adf-1"]
    summary = lane.filter_summary
    return {
        "core.transmit_ratio": summary["transmitted"] / summary["received"],
        "broker.rmse_m": lane.mean_rmse(with_le=True),
    }


def serving_problems(report: dict[str, Any], *, wal: bool) -> list[str]:
    """Conservation (and, with a WAL, logging) checks on a replay report."""
    problems = []
    if report["offered"] != report["records"]:
        problems.append(
            f"offered {report['offered']} != trace records {report['records']}"
        )
    if report["offered"] != report["accepted"] + report["shed"]:
        problems.append(
            f"offered {report['offered']} != accepted {report['accepted']} "
            f"+ shed {report['shed']}"
        )
    settled = (
        report["applied"]
        + report["duplicates"]
        + report["reordered"]
        + report["broker_stale_dropped"]
    )
    if report["accepted"] != settled:
        problems.append(
            f"accepted {report['accepted']} != applied + duplicates + "
            f"reordered + broker_stale_dropped = {settled}"
        )
    if wal and report["wal_appended"] != report["applied"]:
        problems.append(
            f"wal_appended {report['wal_appended']} != applied {report['applied']}"
        )
    return problems


def _shard_state(service: Any, index: int) -> str:
    return json.dumps(service.store.shard(index).state_dict(), sort_keys=True)


class Workload:
    """One named workload: ``setup`` builds inputs, ``run`` is timed."""

    name = ""
    #: The per-layer metric that receives this workload's untraced time.
    residual = ""

    def __init__(self, sizes: Sizes, seed: int, scratch: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, prepared: Any) -> Outcome:
        raise NotImplementedError


class PaperReport(Workload):
    """The ``repro report`` path: object harness run plus the text report."""

    name = "paper-report"
    residual = "experiments.harness_other_s"

    def setup(self) -> MobileGridExperiment:
        config = ExperimentConfig(duration=self.sizes.paper_duration, seed=self.seed)
        return MobileGridExperiment(config)

    def run(self, experiment: MobileGridExperiment) -> Outcome:
        start = time.perf_counter()
        result = experiment.run()
        ran = time.perf_counter()
        text = render_report(result)
        end = time.perf_counter()
        reduction = result.reduction_vs_ideal("adf-1")
        low, high = PAPER_REDUCTION
        problems = []
        if not low <= reduction <= high:
            problems.append(
                f"adf-1 reduction {reduction:.4f} outside [{low}, {high}]"
            )
        return Outcome(
            wall_s=end - start,
            work_s=ran - start,
            msgs=result.ideal.total_lus,
            failed=0,
            counts=adf_counts(result),
            problems=problems,
            digest=_digest(text),
        )


class City(Workload):
    """The 1M-node grid-city rung on the columnar engine, batched placement."""

    name = "city-1m"
    residual = "columnar.other_s"

    def setup(self) -> ColumnarExperiment:
        campus = city_map()
        source = ColumnarMobilitySource(
            campus, fleet_spec(campus, self.sizes.city_nodes), seed=self.seed
        )
        config = ExperimentConfig(
            duration=CITY_DURATION, dth_factors=(1.0,), seed=self.seed
        )
        return ColumnarExperiment(
            config,
            campus=campus,
            source=source,
            kernel=FAST_KERNEL,
            cluster_mode="batched",
        )

    def run(self, experiment: ColumnarExperiment) -> Outcome:
        start = time.perf_counter()
        result = experiment.run()
        end = time.perf_counter()
        reduction = result.reduction_vs_ideal("adf-1")
        counts = adf_counts(result)
        rmse = counts["broker.rmse_m"]
        ref_reduction, ref_rmse = self.sizes.city_reference
        problems = []
        if abs(reduction - ref_reduction) > 0.02:
            problems.append(
                f"adf-1 reduction {reduction:.4f} not within 0.02 of "
                f"{ref_reduction}"
            )
        if abs(rmse / ref_rmse - 1.0) > 0.15:
            problems.append(f"adf-1 RMSE {rmse:.4f} not within 15% of {ref_rmse}")
        lus = [lane.total_lus for lane in result.lanes.values()]
        return Outcome(
            wall_s=end - start,
            work_s=end - start,
            msgs=result.ideal.total_lus,
            failed=0,
            counts=counts,
            problems=problems,
            digest=_digest(repr((result.node_count, lus, reduction, rmse))),
        )


class _Replay(Workload):
    """Record a trace in set-up; decode and replay it in the timed phase."""

    residual = "simkernel.other_s"

    def _record(self, config: ExperimentConfig, **engine: Any) -> Path:
        meta, records = record_columnar_trace(config, kernel=FAST_KERNEL, **engine)
        directory = Path(tempfile.mkdtemp(prefix="rep-", dir=self.scratch))
        write_trace(records, directory / "trace.jsonl", meta=meta)
        return directory


class ServingCityWal(_Replay):
    """A many-node city trace replayed with the WAL on, then a shard crash."""

    name = "serving-city-wal"

    def setup(self) -> Path:
        campus = city_map()
        source = ColumnarMobilitySource(
            campus, fleet_spec(campus, self.sizes.wal_nodes), seed=self.seed
        )
        config = ExperimentConfig(
            duration=self.sizes.wal_duration, dth_factors=(1.0,), seed=self.seed
        )
        return self._record(
            config, campus=campus, source=source, cluster_mode="batched"
        )

    def run(self, directory: Path) -> Outcome:
        start = time.perf_counter()
        meta, records = serving_trace.read_trace(directory / "trace.jsonl")
        manager = DurabilityManager(
            directory / "wal",
            DurabilityConfig(snapshot_every=self.sizes.snapshot_every),
        )
        report, service = replay_trace_full(
            records,
            ReplayConfig(rate=REPLAY_RATE, serving=SERVING),
            trace_meta=meta,
            durability=manager,
        )
        replayed = time.perf_counter()
        wal_bytes = sum(
            manager.wal_path(i).stat().st_size for i in range(SERVING.shards)
        )
        before = _shard_state(service, 0)
        crashed = time.perf_counter()
        service.crash_shard(0)
        service.restart_shard(0)
        end = time.perf_counter()
        after = _shard_state(service, 0)
        manager.close()
        shutil.rmtree(directory)
        summary = report.to_json_dict()
        problems = serving_problems(summary, wal=True)
        if before != after:
            problems.append("shard 0 state after restart differs from before crash")
        return Outcome(
            wall_s=(replayed - start) + (end - crashed),
            work_s=replayed - start,
            msgs=report.offered,
            failed=report.shed,
            counts=_replay_counts(summary, wal_bytes),
            problems=problems,
            digest=_digest(report.to_json() + before),
        )


class ServingCampusSweep(_Replay):
    """Few nodes with long histories, an estimation sweep every trace second."""

    name = "serving-campus-sweep"

    def setup(self) -> Path:
        campus = default_campus()
        source = ColumnarMobilitySource(
            campus, table1_spec().scaled(self.sizes.sweep_factor), seed=self.seed
        )
        config = ExperimentConfig(
            duration=self.sizes.sweep_duration, dth_factors=(1.0,), seed=self.seed
        )
        return self._record(config, campus=campus, source=source)

    def run(self, directory: Path) -> Outcome:
        start = time.perf_counter()
        meta, records = serving_trace.read_trace(directory / "trace.jsonl")
        report, _service = replay_trace_full(
            records,
            ReplayConfig(rate=REPLAY_RATE, sweep_interval=1.0, serving=SERVING),
            trace_meta=meta,
        )
        end = time.perf_counter()
        shutil.rmtree(directory)
        summary = report.to_json_dict()
        return Outcome(
            wall_s=end - start,
            work_s=end - start,
            msgs=report.offered,
            failed=report.shed,
            counts=_replay_counts(summary, 0),
            problems=serving_problems(summary, wal=False),
            digest=_digest(report.to_json()),
        )


def _replay_counts(report: dict[str, Any], wal_bytes: int) -> dict[str, float]:
    return {
        "serving.applied": report["applied"],
        "serving.duplicates": report["duplicates"],
        "serving.reordered": report["reordered"],
        "serving.batches": report["batches"],
        "serving.ingest_p99_s": report["latency_p99"],
        "serving.ingest_n": report["latency_count"],
        "durability.snapshots": report["snapshots_written"],
        "durability.wal_bytes": wal_bytes,
    }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperReport, City, ServingCityWal, ServingCampusSweep)
}

#: Every workload's residual metric, each once.
RESIDUALS: tuple[str, ...] = tuple(
    dict.fromkeys(cls.residual for cls in WORKLOADS.values())
)
