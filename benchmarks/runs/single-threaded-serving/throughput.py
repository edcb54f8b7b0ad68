"""Ingest throughput: a plain ``apply`` loop against the threaded front end.

Applies one fixed stream of 50,000 LUs from 2,000 nodes (25 reports
each, 64 regions) to a 4-shard ``ShardedLocationStore``, five times per
case, and prints one JSON line per case with the median and range in
LU/s:

- ``loop`` — ``store.apply`` called in a plain loop on one thread;
- ``frontend-w1`` / ``-w2`` / ``-w4`` — ``ThreadedFrontEnd`` with that
  many worker threads over a lock-guarded store, one producer thread,
  a queue large enough that nothing sheds; timed from ``start()`` to
  the end of ``stop()`` (every accepted LU applied).

The front-end cases run only on trees that still ship
``repro.serving.frontend``.  Run it from the root of a tree:

    PYTHONPATH=src python benchmarks/runs/single-threaded-serving/throughput.py
"""

from __future__ import annotations

import json
import random
import statistics
import time

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import ShardedLocationStore

NODES = 2_000
REPORTS = 25
REGIONS = 64
SHARDS = 4
REPS = 5


def stream() -> list[LocationUpdate]:
    rng = random.Random(7)
    updates = []
    for step in range(REPORTS):
        for node in range(NODES):
            node_id = f"n{node}"
            updates.append(
                LocationUpdate(
                    sender=node_id,
                    timestamp=float(step + 1),
                    seq=step + 1,
                    node_id=node_id,
                    position=Vec2(rng.uniform(0, 1000), rng.uniform(0, 1000)),
                    velocity=Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                    region_id=f"r{(node + step) % REGIONS}",
                    dth=5.0,
                )
            )
    return updates


def outcome_total(store: ShardedLocationStore) -> int:
    return (
        store.applied
        + store.duplicates
        + store.reordered
        + store.down_dropped
    )


def run_loop(updates: list[LocationUpdate]) -> float:
    store = ShardedLocationStore(SHARDS)
    apply = store.apply
    start = time.perf_counter()
    for update in updates:
        apply(update)
    elapsed = time.perf_counter() - start
    assert outcome_total(store) == len(updates)
    return elapsed


def run_frontend(updates: list[LocationUpdate], workers: int) -> float:
    from repro.serving.frontend import ThreadedFrontEnd

    front = ThreadedFrontEnd(
        workers=workers, queue_capacity=len(updates), shards=SHARDS
    )
    start = time.perf_counter()
    front.start()
    for update in updates:
        front.submit(update)
    front.stop()
    elapsed = time.perf_counter() - start
    assert front.shed == 0
    assert outcome_total(front.store) == len(updates)
    return elapsed


def report(case: str, seconds: list[float], n: int) -> None:
    rates = sorted(n / s for s in seconds)
    print(
        json.dumps(
            {
                "case": case,
                "lus": n,
                "median_lu_per_s": round(statistics.median(rates)),
                "min_lu_per_s": round(rates[0]),
                "max_lu_per_s": round(rates[-1]),
                "reps": len(rates),
            },
            sort_keys=True,
        )
    )


def main() -> None:
    updates = stream()
    report("loop", [run_loop(updates) for _ in range(REPS)], len(updates))
    try:
        import repro.serving.frontend  # noqa: F401
    except ImportError:
        print(json.dumps({"case": "frontend", "present": False}))
        return
    for workers in (1, 2, 4):
        seconds = [run_frontend(updates, workers) for _ in range(REPS)]
        report(f"frontend-w{workers}", seconds, len(updates))


if __name__ == "__main__":
    main()
