"""Digest every serving output of one checkout, for a byte-identity check.

Run from the root of a checkout with ``PYTHONPATH=src``::

    python3 benchmarks/runs/column-snapshots/outputs.py [--seed 1]

The same replays as ``benchmarks/runs/columnar-serving/outputs.py``:
both serving traces at full size under several configurations, with
telemetry off and on, then the WAL replay's files before and after a
crash and restart of shard 0.  A version-2 snapshot (``shard-*.snap``,
a column dump) is digested as the version-1 file it stands for
(``shard-*.snap.json``): its image loaded into a fresh shard and
rendered as the sorted-key ``state_dict`` and gates document.  Two
checkouts that print the same lines produce the same outputs, whichever
snapshot format each writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import workloads  # noqa: E402
from repro.serving import (  # noqa: E402
    DurabilityConfig,
    DurabilityManager,
    ReplayConfig,
    ServingConfig,
    ShardedLocationStore,
    read_trace,
    replay_trace_full,
)
from repro.telemetry import Telemetry, TelemetryConfig  # noqa: E402

BENCH = workloads.SERVING
RATE = workloads.REPLAY_RATE
CASES = {
    "campus": ("campus", ReplayConfig(rate=RATE, sweep_interval=1.0, serving=BENCH)),
    "campus-short-ages": (
        "campus",
        ReplayConfig(
            rate=RATE,
            sweep_interval=1.0,
            serving=ServingConfig(
                shards=4,
                batch_size=2048,
                max_extrapolation_intervals=1.0,
                quarantine_intervals=2.0,
            ),
        ),
    ),
    "campus-le-off": (
        "campus",
        ReplayConfig(
            rate=RATE,
            sweep_interval=1.0,
            serving=ServingConfig(
                shards=4,
                batch_size=2048,
                use_location_estimator=False,
                max_extrapolation_intervals=1.0,
                quarantine_intervals=3.0,
            ),
        ),
    ),
    "campus-shed": (
        "campus",
        ReplayConfig(
            rate=RATE,
            sweep_interval=0.5,
            serving=ServingConfig(shards=3, queue_capacity=300, batch_size=64),
        ),
    ),
    "city-recorded-timing": (
        "city",
        ReplayConfig(
            rate=0.0,
            sweep_interval=1.0,
            serving=ServingConfig(
                shards=4,
                batch_size=700,
                max_extrapolation_intervals=1.0,
                quarantine_intervals=1.5,
            ),
        ),
    ),
}


def digest(data: str | bytes) -> str:
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return hashlib.sha256(raw).hexdigest()[:16]


def states(service) -> str:
    return digest(
        json.dumps(
            [service.store.shard(i).state_dict() for i in range(service.config.shards)],
            sort_keys=True,
        )
    )


def snapshot_file(path: Path) -> tuple[str, str]:
    """The version-1 name and bytes' digest of the snapshot at *path*."""
    if path.suffix == ".json":
        return path.name, digest(path.read_bytes())
    from repro.serving.durability import load_snapshot

    index = int(path.name[len("shard-") :].split(".")[0])
    lsn, image = load_snapshot(path)
    store = ShardedLocationStore(
        BENCH.shards,
        smoothing_alpha=BENCH.smoothing_alpha,
        use_location_estimator=BENCH.use_location_estimator,
    )
    store.crash_shard(index)
    store.restore_shard(index, image=image, entries=[])
    document = {
        "format": "repro-shard-snapshot",
        "gates": store.export_state(),
        "lsn": lsn,
        "shard": index,
        "state": store.shard(index).state_dict(),
        "version": 1,
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    return f"{path.name}.json", digest(text)


def files(wal: Path) -> list[tuple[str, str]]:
    """(name, digest) of every WAL and snapshot file in *wal*."""
    return sorted(
        snapshot_file(path)
        if ".snap" in path.name
        else (path.name, digest(path.read_bytes()))
        for path in wal.iterdir()
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    scratch = Path(tempfile.mkdtemp(prefix="outputs-"))
    try:
        traces = {}
        for key, cls in (
            ("campus", workloads.ServingCampusSweep),
            ("city", workloads.ServingCityWal),
        ):
            path = cls(workloads.FULL, args.seed, scratch).setup() / "trace.jsonl"
            traces[key] = read_trace(path)
        for name, (trace, config) in CASES.items():
            meta, records = traces[trace]
            for telemetry in (None, Telemetry(TelemetryConfig(enabled=True))):
                report, service = replay_trace_full(
                    records, config, trace_meta=meta, telemetry=telemetry
                )
                label = f"{name} telemetry={'on' if telemetry else 'off'}"
                print(f"{label} report {digest(report.to_json())}")
                print(f"{label} shards {states(service)}")
                export = json.dumps(service.store.export_state(), sort_keys=True)
                print(f"{label} export {digest(export)}")
                if telemetry is not None:
                    events = json.dumps(
                        telemetry.events.snapshot(), sort_keys=True, default=str
                    )
                    print(f"{label} events {digest(events)}")
        meta, records = traces["city"]
        for telemetry in (None, Telemetry(TelemetryConfig(enabled=True))):
            label = f"city-wal telemetry={'on' if telemetry else 'off'}"
            wal = scratch / f"wal-{'on' if telemetry else 'off'}"
            manager = DurabilityManager(
                wal,
                DurabilityConfig(snapshot_every=workloads.FULL.snapshot_every),
                telemetry=telemetry,
            )
            report, service = replay_trace_full(
                records,
                ReplayConfig(rate=RATE, serving=BENCH),
                trace_meta=meta,
                durability=manager,
                telemetry=telemetry,
            )
            print(f"{label} report {digest(report.to_json())}")
            print(f"{label} shards {states(service)}")
            for name, hashed in files(wal):
                print(f"{label} replayed {name} {hashed}")
            service.crash_shard(0)
            service.restart_shard(0)
            manager.close()
            print(f"{label} restarted shard-0 {states(service)}")
            for name, hashed in files(wal):
                print(f"{label} restarted {name} {hashed}")
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
