"""Digests of every serving replay output, to compare two trees.

Records the two serving workloads' traces at FULL size for seeds 1 and 2
(as their set-up does), replays them as their timed phase does, and
prints a short sha256 of each output: the decoded records and their
``encoded`` bytes, the ServingReport JSON, every shard's ``state_dict``,
and for serving-city-wal every ``shard-*`` WAL and snapshot file plus
shard 0's state after a crash and restart.  Run it from the root of each
tree and diff the two outputs:

    PYTHONPATH=src python benchmarks/runs/decode-once/outputs.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "benchmarks/e2e")

import workloads as w

from repro.serving import (
    DurabilityConfig,
    DurabilityManager,
    ReplayConfig,
    read_trace,
    replay_trace_full,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def states(service) -> str:
    return digest(
        json.dumps(
            [service.store.shard(i).state_dict() for i in range(w.SERVING.shards)],
            sort_keys=True,
        ).encode()
    )


def main() -> None:
    scratch = Path(tempfile.mkdtemp(prefix="outputs-"))
    try:
        for cls in (w.ServingCampusSweep, w.ServingCityWal):
            for seed in (1, 2):
                directory = cls(w.FULL, seed, scratch).setup()
                path = directory / "trace.jsonl"
                meta, records = read_trace(path)
                line = [
                    cls.name,
                    str(seed),
                    "trace",
                    digest(path.read_bytes()),
                    "records",
                    digest(repr([r.to_row() for r in records]).encode()),
                    "encoded",
                    digest(b"\n".join(r.encoded for r in records)),
                ]
                if cls is w.ServingCampusSweep:
                    report, service = replay_trace_full(
                        records,
                        ReplayConfig(
                            rate=w.REPLAY_RATE, sweep_interval=1.0, serving=w.SERVING
                        ),
                        trace_meta=meta,
                    )
                    line += ["report", digest(report.to_json().encode())]
                    line += ["states", states(service)]
                else:
                    manager = DurabilityManager(
                        directory / "wal",
                        DurabilityConfig(snapshot_every=w.FULL.snapshot_every),
                    )
                    report, service = replay_trace_full(
                        records,
                        ReplayConfig(rate=w.REPLAY_RATE, serving=w.SERVING),
                        trace_meta=meta,
                        durability=manager,
                    )
                    line += ["report", digest(report.to_json().encode())]
                    line += ["states", states(service)]
                    for file in sorted((directory / "wal").iterdir()):
                        line += [file.name, digest(file.read_bytes())]
                    service.crash_shard(0)
                    service.restart_shard(0)
                    line += [
                        "restarted",
                        digest(
                            json.dumps(
                                service.store.shard(0).state_dict(), sort_keys=True
                            ).encode()
                        ),
                    ]
                    manager.close()
                shutil.rmtree(directory)
                print(" ".join(line))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
