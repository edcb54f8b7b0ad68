"""Resident bytes per node of a finished city-1m experiment, by owner.

    PYTHONPATH=src python benchmarks/runs/bytes-per-node/census.py [NODES]

Builds the ``city-1m`` set-up of the end-to-end benchmark (12 x 12-block
grid city, one ADF lane, ``FAST_KERNEL``, batched placement) at about
NODES nodes (default 1,000,000), runs it, then walks every object
reachable from the experiment.  Each numpy buffer counts once (views
count toward their base array) under the first attribute that reaches
it; every other object counts ``sys.getsizeof`` once.  Node id strings
and the containers that hold them count under ``ids`` wherever they
sit.  Prints bytes per node for each owner, numpy and Python apart.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict

import numpy as np

from repro.campus import generate_grid_campus
from repro.core.columnar import ColumnarExperiment, ColumnarMobilitySource
from repro.core.columnar.kernels import FAST_KERNEL
from repro.experiments.config import ExperimentConfig
from repro.mobility.population import table1_spec

_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    np.random.Generator,
    np.dtype,
)
_ATOMS = (str, bytes, int, float, complex, bool, type(None), np.generic)
_ID_ATTRIBUTES = ("node_ids", "index_of", "_home_regions")


def owner(path: str) -> str:
    """The owner an attribute path counts under."""
    if any(name in path for name in _ID_ATTRIBUTES):
        return "ids"
    parts = path.split(".")
    if parts[1] == "adf_brain" and len(parts) > 2:
        return "adf_brain." + parts[2].split("[")[0]
    if parts[1].startswith("lanes["):
        return parts[1]
    return parts[1].split("[")[0]


def census(experiment: object) -> dict[str, list[int]]:
    """``owner -> [numpy bytes, Python bytes]`` reachable from *experiment*."""
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    seen = {id(experiment)}
    stack = [
        (f"experiment.{name}", value)
        for name, value in reversed(list(vars(experiment).items()))
    ]
    while stack:
        path, obj = stack.pop()
        if isinstance(obj, _OPAQUE) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is obj or id(base) not in seen:
                seen.add(id(base))
                totals[owner(path)][0] += base.nbytes
            continue
        totals[owner(path)][1] += sys.getsizeof(obj)
        if isinstance(obj, _ATOMS):
            continue
        if isinstance(obj, dict):
            stack.extend((f"{path}[]", v) for v in obj.values())
            stack.extend((f"{path}[]", k) for k in obj)
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend((f"{path}[{i}]", v) for i, v in enumerate(obj))
            continue
        if hasattr(obj, "__dict__"):
            stack.extend((f"{path}.{k}", v) for k, v in vars(obj).items())
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    stack.append((f"{path}.{name}", getattr(obj, name)))
    return totals


def main(argv: list[str]) -> None:
    target = int(argv[0]) if argv else 1_000_000
    campus = generate_grid_campus(
        blocks_x=12, blocks_y=12, block_size=150.0, rng=np.random.default_rng(42)
    )
    base = table1_spec()
    size = base.total_for(len(campus.roads()), len(campus.buildings()))
    source = ColumnarMobilitySource(campus, base.scaled(round(target / size)), seed=42)
    config = ExperimentConfig(duration=3.0, dth_factors=(1.0,), seed=42)
    experiment = ColumnarExperiment(
        config, campus=campus, source=source, kernel=FAST_KERNEL, cluster_mode="batched"
    )
    experiment.run()
    n = len(experiment.state)
    totals = census(experiment)
    print(f"{'owner':24s} {'numpy':>8s} {'python':>8s}   B/node, n = {n}")
    rows = sorted(totals.items(), key=lambda kv: -sum(kv[1]))
    for name, (array_bytes, object_bytes) in rows:
        if (array_bytes + object_bytes) / n >= 0.05:
            print(f"{name:24s} {array_bytes / n:8.1f} {object_bytes / n:8.1f}")
    array_total = sum(t[0] for t in totals.values())
    object_total = sum(t[1] for t in totals.values())
    print(f"{'total':24s} {array_total / n:8.1f} {object_total / n:8.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
