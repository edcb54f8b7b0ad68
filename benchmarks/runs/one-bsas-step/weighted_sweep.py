"""Time exact ``place_all`` sweeps of two clusterer implementations.

    PYTHONPATH=src python3 benchmarks/runs/one-bsas-step/weighted_sweep.py \
        A/clustering.py B/clustering.py [--weight 0.5] [--rounds 5]

Loads ``ColumnarClusterer`` from each file, then alternates the two for
``--rounds`` rounds.  A round builds a fresh clusterer (alpha 0.75, 64
clusters at most), warms it on two sweeps of 100k synthetic rows and
times four more.  Prints the best and the median of the per-round best
sweep times for each file.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import time

import numpy as np

N = 100_000


def load(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ColumnarClusterer


def workloads() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(1)
    base = rng.uniform(0.0, 12.0, N)
    return [
        (
            rng.random(N) < 0.2,
            np.clip(base + rng.normal(0.0, 0.3, N), 0.0, None),
            rng.uniform(-math.pi, math.pi, N),
        )
        for _ in range(4)
    ]


def best_sweep(cls, weight: float, works) -> float:
    col = cls(0.75, capacity=N, max_clusters=64, direction_weight=weight)
    avg = np.zeros(N)
    heading = (lambda d: d) if weight > 0.0 else (lambda d: None)
    for stop, speed, direction in works[:2]:
        col.place_all(stop, speed, heading(direction), avg)
    best = math.inf
    for stop, speed, direction in works[2:] * 2:
        start = time.perf_counter()
        col.place_all(stop, speed, heading(direction), avg)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs=2)
    parser.add_argument("--weight", type=float, default=0.5)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    classes = [load(path, f"impl{k}") for k, path in enumerate(args.files)]
    works = workloads()
    times: list[list[float]] = [[], []]
    for _ in range(args.rounds):
        for k, cls in enumerate(classes):
            times[k].append(best_sweep(cls, args.weight, works))
    for path, row in zip(args.files, times):
        print(
            f"{path}: best {min(row):.3f} s, median {statistics.median(row):.3f} s"
        )


if __name__ == "__main__":
    main()
