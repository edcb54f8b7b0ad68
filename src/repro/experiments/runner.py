"""Process-parallel sweep/replication runner with checkpoint-resume.

The paper's figures and every ablation are built from many independent
``run_experiment`` invocations, and conclusions only stabilise across
sweeps over population, speed and mobility parameters.  This module runs
those sweeps as fast as the hardware allows:

* a :class:`SweepSpec` is a base :class:`ExperimentConfig` plus a
  parameter grid (axes) and a replication count;
* every (cell, replication) pair gets its own deterministic seed via
  :func:`repro.util.rng.spawn_seed`, so a sweep is reproducible from the
  base seed alone and a cell's result does not depend on whether it ran
  serially, in a worker process, or after a resume;
* runs fan out over a ``ProcessPoolExecutor`` with bounded dispatch
  (at most ``workers * 4`` tasks are in flight, so million-cell grids
  don't materialise a million pickled configs at once) and one retry per
  failed task;
* each completed run is checkpointed as a JSON artifact (atomic
  write-then-rename via :func:`repro.experiments.io.write_json_atomic`),
  and an interrupted sweep resumes by skipping finished cells;
* per-cell aggregates (mean/CI across replications) come from
  :func:`repro.analysis.multirun.summarize_values`, and telemetry
  snapshots are combined per cell with
  :func:`repro.telemetry.export.merge_snapshots`.

The CLI front-end is ``python -m repro sweep``; see ``docs/sweeps.md``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import tomllib
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.analysis.multirun import MetricSummary, summarize_values
from repro.experiments.config import ExperimentConfig
from repro.experiments.config_io import apply_overrides, config_from_dict
from repro.experiments.harness import run_experiment
from repro.experiments.io import load_json, result_to_dict, write_json_atomic
from repro.telemetry.export import merge_snapshots
from repro.util.rng import spawn_seed

__all__ = [
    "SweepSpec",
    "RunTask",
    "CellResult",
    "SweepResult",
    "cell_key",
    "run_sweep",
    "load_sweep_spec",
    "sweep_spec_from_dict",
]


# -- grid definition ---------------------------------------------------------
def _format_value(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "+".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def cell_key(params: Mapping[str, Any]) -> str:
    """Canonical human-readable key of one grid cell.

    Axis order is preserved (it is part of the sweep definition), so the
    same spec always produces the same keys — which is what resume uses
    to match checkpoints to cells.
    """
    if not params:
        return "base"
    return ",".join(f"{k}={_format_value(v)}" for k, v in params.items())


def _cell_dirname(key: str) -> str:
    """A filesystem-safe directory name for a cell, collision-proofed.

    The readable slug may lose characters to sanitisation, so a short
    content hash of the exact key keeps distinct cells distinct.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).hexdigest()
    slug = re.sub(r"[^A-Za-z0-9_.=+,-]", "_", key)[:80]
    return f"{slug}-{digest}"


@dataclass(frozen=True)
class RunTask:
    """One (cell, replication) unit of sweep work.

    Frozen: ``pool.submit`` hands a task to the pool's feeder thread,
    which pickles it lazily, so no field may be reassigned afterwards.
    """

    cell_key: str
    params: dict[str, Any]
    replication: int
    seed: int
    config: ExperimentConfig
    checkpoint: str | None = None

    @property
    def run_id(self) -> str:
        """Stable identifier of this unit (cell key + replication)."""
        return f"{self.cell_key}#rep{self.replication}"


@dataclass(frozen=True)
class SweepSpec:
    """A base config, a parameter grid, and a replication count.

    ``axes`` maps :class:`ExperimentConfig` field names (or dotted
    ``population.<field>`` names) to the values to sweep; the grid is
    the cartesian product in axis order.  Each cell runs
    ``replications`` times with per-run seeds derived from
    ``base.seed``.
    """

    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    replications: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}"
            )
        for name, values in self.axes:
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            if name == "seed":
                raise ValueError(
                    "'seed' cannot be a sweep axis; per-run seeds are "
                    "derived from the base seed — use replications for "
                    "seed variation"
                )
            # Fail at definition time, not mid-sweep in a worker.
            apply_overrides(self.base, {name: values[0]})

    @classmethod
    def from_axes(
        cls,
        axes: Mapping[str, Sequence[Any]],
        *,
        base: ExperimentConfig | None = None,
        replications: int = 1,
    ) -> "SweepSpec":
        """Build a spec from a plain ``{axis: values}`` mapping."""
        normalised = tuple(
            (name, tuple(values)) for name, values in axes.items()
        )
        return cls(
            base=base or ExperimentConfig(),
            axes=normalised,
            replications=replications,
        )

    def cells(self) -> list[dict[str, Any]]:
        """Every grid cell as an ``{axis: value}`` dict, in grid order."""
        if not self.axes:
            return [{}]
        names = [name for name, _ in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(values for _, values in self.axes))
        ]

    def tasks(self, out_dir: str | Path | None = None) -> list[RunTask]:
        """All (cell, replication) tasks, with checkpoint paths if given."""
        tasks: list[RunTask] = []
        out = Path(out_dir) if out_dir is not None else None
        for params in self.cells():
            key = cell_key(params)
            config = apply_overrides(self.base, params)
            for rep in range(self.replications):
                seed = spawn_seed(self.base.seed, f"sweep/{key}#rep{rep}")
                checkpoint = None
                if out is not None:
                    checkpoint = str(
                        out / "runs" / _cell_dirname(key) / f"rep{rep:03d}.json"
                    )
                tasks.append(
                    RunTask(
                        cell_key=key,
                        params=params,
                        replication=rep,
                        seed=seed,
                        config=replace(config, seed=seed),
                        checkpoint=checkpoint,
                    )
                )
        return tasks

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable description (for the sweep manifest)."""
        return {
            "base_seed": self.base.seed,
            "replications": self.replications,
            "axes": {name: list(values) for name, values in self.axes},
            "cells": [cell_key(params) for params in self.cells()],
        }


def sweep_spec_from_dict(data: dict[str, Any]) -> SweepSpec:
    """Build a :class:`SweepSpec` from plain data.

    Layout::

        {"axes": {"duration": [300, 600], "population.building_stop": [5, 10]},
         "replications": 3,
         "base": {...ExperimentConfig fields...}}
    """
    data = dict(data)
    base_data = data.pop("base", None)
    axes = data.pop("axes", {})
    replications = data.pop("replications", 1)
    if data:
        raise ValueError(f"unknown sweep keys: {sorted(data)}")
    base = config_from_dict(base_data) if base_data else ExperimentConfig()
    return SweepSpec.from_axes(axes, base=base, replications=replications)


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load a sweep definition from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if path.suffix == ".toml":
        data = tomllib.loads(path.read_text())
    elif path.suffix == ".json":
        data = json.loads(path.read_text())
    else:
        raise ValueError(f"unsupported sweep format {path.suffix!r}")
    return sweep_spec_from_dict(data)


# -- execution ---------------------------------------------------------------
def _execute_task(task: RunTask) -> dict[str, Any]:
    """Run one task and (optionally) checkpoint it.  Runs in a worker.

    The payload is round-tripped through JSON before returning so that a
    freshly computed run and one loaded from a checkpoint are the same
    object shape (tuples become lists, keys become strings) — this is
    what makes serial, parallel and resumed sweeps bit-identical.
    """
    result = run_experiment(task.config)
    payload = {
        "sweep": {
            "cell_key": task.cell_key,
            "params": task.params,
            "replication": task.replication,
            "seed": task.seed,
        },
        "result": result_to_dict(result),
    }
    payload = json.loads(json.dumps(payload))
    if task.checkpoint:
        write_json_atomic(payload, task.checkpoint)
    return payload


def _valid_checkpoint(task: RunTask) -> dict[str, Any] | None:
    """Load the task's checkpoint if it exists and matches the task."""
    if not task.checkpoint or not Path(task.checkpoint).exists():
        return None
    try:
        payload = load_json(task.checkpoint)
    except (OSError, json.JSONDecodeError):
        return None
    meta = payload.get("sweep", {})
    expected = json.loads(json.dumps(task.params))
    if meta.get("seed") != task.seed or meta.get("params") != expected:
        return None  # stale artifact from a different spec: recompute
    return payload


# -- results -----------------------------------------------------------------
@dataclass
class CellResult:
    """All replications of one grid cell, plus cross-run aggregates."""

    key: str
    params: dict[str, Any]
    runs: list[dict[str, Any]] = field(default_factory=list)

    def metrics(self) -> dict[str, list[float]]:
        """Per-metric value lists, one value per replication."""
        out: dict[str, list[float]] = {}
        for payload in self.runs:
            for metric, value in _run_metrics(payload["result"]).items():
                out.setdefault(metric, []).append(value)
        return out

    def summaries(self, *, confidence: float = 0.95) -> dict[str, MetricSummary]:
        """Mean/CI of every standard metric across this cell's runs."""
        return {
            metric: summarize_values(values, metric=metric, confidence=confidence)
            for metric, values in self.metrics().items()
        }

    def telemetry(self) -> dict[str, Any] | None:
        """The cell's replication telemetry snapshots merged into one."""
        snapshots = [
            payload["result"]["telemetry"]
            for payload in self.runs
            if payload["result"].get("telemetry") is not None
        ]
        if not snapshots:
            return None
        return merge_snapshots(snapshots)


def _run_metrics(result: dict[str, Any]) -> dict[str, float]:
    """The scalar metrics aggregated across a cell's replications."""
    out: dict[str, float] = {
        "classification_accuracy": result["classification_accuracy"],
        "average_fleet_speed": result["average_fleet_speed"],
    }
    for name, lane in sorted(result["lanes"].items()):
        if lane.get("kind") == "adf":
            out[f"reduction({name})"] = lane["reduction_vs_ideal"]
            out[f"rmse_with_le({name})"] = lane["mean_rmse_with_le"]
            out[f"rmse_without_le({name})"] = lane["mean_rmse_without_le"]
    return out


@dataclass
class SweepResult:
    """The outcome of :func:`run_sweep`."""

    spec: SweepSpec
    cells: dict[str, CellResult]
    #: run_ids actually executed in this invocation.
    executed: list[str] = field(default_factory=list)
    #: run_ids restored from checkpoints instead of executed.
    resumed: list[str] = field(default_factory=list)
    #: run_ids that failed once and succeeded on retry.
    retried: list[str] = field(default_factory=list)

    def render(self) -> str:
        """A human-readable per-cell summary table."""
        lines: list[str] = []
        for cell in self.cells.values():
            lines.append(f"cell {cell.key} (n={len(cell.runs)})")
            for summary in cell.summaries().values():
                lines.append(f"  {summary}")
        lines.append(
            f"{len(self.executed)} run(s) executed, "
            f"{len(self.resumed)} resumed from checkpoints, "
            f"{len(self.retried)} retried"
        )
        return "\n".join(lines)


def run_sweep(
    spec: SweepSpec,
    *,
    out_dir: str | Path | None = None,
    workers: int = 1,
    resume: bool = True,
    retries: int = 1,
    max_outstanding: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the whole sweep, fanning cells out over worker processes.

    With *out_dir*, every completed run is checkpointed there and a
    ``manifest.json`` records the grid; a re-invocation with the same
    spec and *resume* ``True`` skips runs whose checkpoint already
    exists (matching on cell params and derived seed, so a stale
    artifact from a different grid is recomputed, not trusted).

    ``workers <= 1`` runs everything in-process — the results are
    identical either way because each run's seed is derived from its
    (cell, replication) identity, never from execution order.
    """
    say = progress or (lambda _msg: None)
    tasks = spec.tasks(out_dir)
    if out_dir is not None:
        write_json_atomic(spec.to_dict(), Path(out_dir) / "manifest.json")

    result = SweepResult(spec=spec, cells={})
    for params in spec.cells():
        key = cell_key(params)
        result.cells[key] = CellResult(key=key, params=params)

    pending: deque[RunTask] = deque()
    for task in tasks:
        payload = _valid_checkpoint(task) if resume else None
        if payload is not None:
            result.cells[task.cell_key].runs.append(payload)
            result.resumed.append(task.run_id)
            say(f"resume {task.run_id}")
        else:
            pending.append(task)

    def record(task: RunTask, payload: dict[str, Any]) -> None:
        result.cells[task.cell_key].runs.append(payload)
        result.executed.append(task.run_id)
        say(f"done {task.run_id}")

    if workers <= 1:
        for task in pending:
            record(task, _run_with_retry(task, retries, result, say))
    else:
        _run_pool(
            pending, workers, retries, max_outstanding, record, result, say
        )

    for cell in result.cells.values():
        cell.runs.sort(key=lambda payload: payload["sweep"]["replication"])
    return result


def _run_with_retry(
    task: RunTask,
    retries: int,
    result: SweepResult,
    say: Callable[[str], None],
) -> dict[str, Any]:
    """Serial execution with the same retry budget as the pool path."""
    attempts = retries + 1
    for attempt in range(attempts):
        try:
            payload = _execute_task(task)
        except Exception:
            if attempt + 1 >= attempts:
                raise
            say(f"retry {task.run_id}")
            result.retried.append(task.run_id)
        else:
            return payload
    raise AssertionError("unreachable")  # pragma: no cover


def _run_pool(
    pending: deque[RunTask],
    workers: int,
    retries: int,
    max_outstanding: int | None,
    record: Callable[[RunTask, dict[str, Any]], None],
    result: SweepResult,
    say: Callable[[str], None],
) -> None:
    """Bounded chunked dispatch over a process pool, one retry per task."""
    limit = max_outstanding or workers * 4
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures: dict[Any, tuple[RunTask, int]] = {}
        while pending or futures:
            while pending and len(futures) < limit:
                task = pending.popleft()
                futures[pool.submit(_execute_task, task)] = (task, 0)
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                task, attempt = futures.pop(future)
                error = future.exception()
                if error is None:
                    record(task, future.result())
                elif attempt < retries:
                    say(f"retry {task.run_id}")
                    result.retried.append(task.run_id)
                    futures[pool.submit(_execute_task, task)] = (
                        task,
                        attempt + 1,
                    )
                else:
                    raise RuntimeError(
                        f"sweep task {task.run_id} failed after "
                        f"{attempt + 1} attempt(s)"
                    ) from error
