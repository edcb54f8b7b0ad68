"""Garbage-collector cost of one serving replay, per workload.

Run from the root of a checkout with ``PYTHONPATH=src``::

    python3 benchmarks/runs/column-snapshots/gc.py [--seed 1] [--repeats 3]

Records each serving workload's trace as ``benchmarks/e2e`` does (full
size), then times ``read_trace`` plus the replay (the WAL workload also
crashes and restarts shard 0) with ``gc.callbacks`` hooked.  Prints, per
repetition: seconds spent in collections, collections per generation,
and GC-tracked objects created, which is ``len(gc.get_objects())`` after
the replay minus before it, with the replay's results still alive.
"""

from __future__ import annotations

import argparse
import gc
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import workloads  # noqa: E402
from repro.serving import (  # noqa: E402
    DurabilityConfig,
    DurabilityManager,
    ReplayConfig,
    read_trace,
    replay_trace_full,
)


def replay(name: str, trace: Path, scratch: Path) -> tuple:
    meta, records = read_trace(trace)
    if name == "serving-city-wal":
        manager = DurabilityManager(
            scratch / "wal",
            DurabilityConfig(snapshot_every=workloads.FULL.snapshot_every),
        )
        report, service = replay_trace_full(
            records,
            ReplayConfig(rate=workloads.REPLAY_RATE, serving=workloads.SERVING),
            trace_meta=meta,
            durability=manager,
        )
        service.crash_shard(0)
        service.restart_shard(0)
        manager.close()
    else:
        report, service = replay_trace_full(
            records,
            ReplayConfig(
                rate=workloads.REPLAY_RATE,
                sweep_interval=1.0,
                serving=workloads.SERVING,
            ),
            trace_meta=meta,
        )
    return records, report, service


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    scratch = Path(tempfile.mkdtemp(prefix="gc-"))
    try:
        for cls in (workloads.ServingCampusSweep, workloads.ServingCityWal):
            workload = cls(workloads.FULL, args.seed, scratch)
            trace = workload.setup() / "trace.jsonl"
            for repeat in range(args.repeats):
                spans: list[list] = []

                def hook(phase: str, info: dict) -> None:
                    if phase == "start":
                        spans.append([time.perf_counter(), info["generation"]])
                    else:
                        spans[-1][0] = time.perf_counter() - spans[-1][0]

                gc.collect()
                before = len(gc.get_objects())
                gc.callbacks.append(hook)
                kept = replay(cls.name, trace, scratch / f"run-{repeat}")
                gc.callbacks.remove(hook)
                created = len(gc.get_objects()) - before
                del kept
                per_gen = [sum(1 for _, g in spans if g == gen) for gen in range(3)]
                print(
                    f"{cls.name} rep {repeat}: gc {sum(s for s, _ in spans):.3f} s, "
                    f"collections gen0/1/2 {per_gen[0]}/{per_gen[1]}/{per_gen[2]}, "
                    f"tracked objects created {created}"
                )
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
