"""Per-node memory of the columnar engine.

The engine holds each per-node fact once, in the narrowest dtype that
is still bit-exact, and derives node ids from the row index.  These
tests pin that layout on a finished run: a byte budget per node over
every distinct numpy buffer reachable from the experiment, no Python
container as large as the fleet, and no duplicate lane columns.  Unlike
peak RSS, the census is deterministic.
"""

from __future__ import annotations

import types
from collections import defaultdict

import numpy as np
import pytest

from repro.campus import default_campus, generate_grid_campus
from repro.core.columnar import ColumnarExperiment, ColumnarMobilitySource
from repro.core.columnar.engine import _BrownBrokerState
from repro.core.columnar.kernels import FAST_KERNEL
from repro.core.columnar.state import BlockNodeIds, ColumnarNodeState
from repro.experiments.config import ExperimentConfig
from repro.mobility.population import table1_spec

#: Bytes of numpy buffers per node after a run of the city set-up below
#: (one ADF lane, batched placement).  The layout measures 517 B/node
#: here (515 at 1M nodes, where the per-block map tables vanish); 240
#: B/node of that are the three window-10 classifier rings.
BYTES_PER_NODE_BUDGET = 600

_ATOMS = (str, bytes, int, float, complex, bool, type(None), np.generic)
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    np.random.Generator,
    np.dtype,
)


def census(root: object) -> tuple[dict[str, int], list[tuple[str, int]]]:
    """Walk everything reachable from *root*.

    Returns the bytes of every distinct numpy buffer (each base array
    counted once, under the first attribute path that reaches it) and
    the ``(path, length)`` of every list, tuple, set or dict walked.
    """
    buffers: dict[int, tuple[str, int]] = {}
    containers: list[tuple[str, int]] = []
    seen: set[int] = set()
    stack: list[tuple[str, object]] = [("experiment", root)]
    while stack:
        path, obj = stack.pop()
        if isinstance(obj, _ATOMS) or isinstance(obj, _OPAQUE) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers.setdefault(id(base), (path, base.nbytes))
            continue
        if isinstance(obj, dict):
            containers.append((path, len(obj)))
            stack.extend((f"{path}[{k!r}]", v) for k, v in obj.items())
            stack.extend((f"{path}.key", k) for k in obj)
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            containers.append((path, len(obj)))
            stack.extend((f"{path}[{i}]", v) for i, v in enumerate(obj))
            continue
        for name, value in vars(obj).items() if hasattr(obj, "__dict__") else ():
            stack.append((f"{path}.{name}", value))
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    stack.append((f"{path}.{name}", getattr(obj, name)))
    by_path: dict[str, int] = defaultdict(int)
    for path, nbytes in buffers.values():
        by_path[path] += nbytes
    return dict(by_path), containers


def _city_experiment(target_nodes: int) -> ColumnarExperiment:
    campus = generate_grid_campus(
        blocks_x=12, blocks_y=12, block_size=150.0, rng=np.random.default_rng(42)
    )
    base = table1_spec()
    size = base.total_for(len(campus.roads()), len(campus.buildings()))
    source = ColumnarMobilitySource(
        campus, base.scaled(round(target_nodes / size)), seed=42
    )
    config = ExperimentConfig(duration=3.0, dth_factors=(1.0,), seed=42)
    return ColumnarExperiment(
        config,
        campus=campus,
        source=source,
        kernel=FAST_KERNEL,
        cluster_mode="batched",
    )


@pytest.fixture(scope="module")
def finished_city():
    experiment = _city_experiment(20_000)
    experiment.run()
    return experiment


class TestBytesPerNode:
    def test_numpy_buffers_within_budget(self, finished_city):
        n = len(finished_city.state)
        by_path, _ = census(finished_city)
        total = sum(by_path.values())
        table = "\n".join(
            f"{nbytes / n:8.1f} B/node  {path}"
            for path, nbytes in sorted(by_path.items(), key=lambda kv: -kv[1])
        )
        assert total / n <= BYTES_PER_NODE_BUDGET, (
            f"{total / n:.1f} B/node > {BYTES_PER_NODE_BUDGET}:\n{table}"
        )

    def test_no_fleet_sized_python_container(self, finished_city):
        n = len(finished_city.state)
        _, containers = census(finished_city)
        big = [(path, size) for path, size in containers if size >= n]
        assert not big, f"containers with >= {n} entries: {big}"

    def test_object_form_columns_are_never_allocated(self, finished_city):
        # The run never writes them.  Zeroed up front, their pages were
        # resident or not depending on the heap's layout, and peak RSS
        # split into two modes from run to run.
        unused = {"heading", "dth", "fix_x", "fix_y", "fix_time", "has_fix"}
        assert not unused & set(vars(finished_city.state))

    def test_one_copy_of_each_lane_column(self, finished_city):
        ideal, *filtered = finished_city.lanes
        assert ideal.brown is None
        assert ideal.with_le is ideal.without_le
        assert not isinstance(ideal.with_le, _BrownBrokerState)
        for lane in filtered:
            brown = lane.brown
            assert lane.with_le is brown
            assert not hasattr(lane, "fix_x") and not hasattr(lane, "has_fix")
            assert lane.without_le.bel_x is brown.last_x
            assert lane.without_le.bel_y is brown.last_y
            assert lane.without_le.known is brown.known


def _eager_ids(campus, spec) -> list[str]:
    """The ids as the source used to build them, one string per node."""
    ids = []
    for region in campus.roads():
        rid = region.region_id
        ids += [f"{rid}-human-{i:06d}" for i in range(spec.road_humans_per_road)]
        ids += [f"{rid}-vehicle-{i:06d}" for i in range(spec.road_vehicles_per_road)]
    for region in campus.buildings():
        rid = region.region_id
        ids += [f"{rid}-SS-{i:06d}" for i in range(spec.building_stop)]
        ids += [f"{rid}-RMS-{i:06d}" for i in range(spec.building_random)]
        ids += [f"{rid}-LMS-{i:06d}" for i in range(spec.building_linear)]
    return ids


@pytest.mark.parametrize(
    "campus",
    [
        pytest.param(default_campus(), id="campus"),
        pytest.param(
            generate_grid_campus(
                blocks_x=12, blocks_y=12, block_size=150.0,
                rng=np.random.default_rng(42),
            ),
            id="city-12x12",
        ),
    ],
)
class TestLazyIds:
    def test_ids_match_the_eager_list(self, campus):
        spec = table1_spec().scaled(2)
        source = ColumnarMobilitySource(campus, spec, seed=3)
        eager = _eager_ids(campus, spec)
        lazy = source.node_ids
        assert isinstance(lazy, BlockNodeIds)
        assert len(lazy) == len(eager)
        assert list(lazy) == eager
        assert [lazy[i] for i in range(len(eager))] == eager
        assert [lazy[-i] for i in range(1, len(eager) + 1)] == eager[::-1]
        assert lazy[3:40:7] == eager[3:40:7]
        with pytest.raises(IndexError):
            lazy[len(eager)]
        with pytest.raises(IndexError):
            lazy[-len(eager) - 1]
        state = source.build_state()
        assert state.node_ids is lazy
        assert state.index_of == {nid: i for i, nid in enumerate(eager)}
        assert source.home_regions() == [nid.rsplit("-", 2)[0] for nid in eager]

    def test_meter_keys_are_the_ids(self, campus):
        spec = table1_spec().scaled(2)
        source = ColumnarMobilitySource(campus, spec, seed=3)
        config = ExperimentConfig(duration=2.0, dth_factors=(1.0,), seed=3)
        result = ColumnarExperiment(config, campus=campus, source=source).run()
        eager = _eager_ids(campus, spec)
        per_node = result.lanes["ideal"].meter.per_node()
        assert list(per_node) == eager
        assert set(per_node.values()) == {2}


class TestIdUniqueness:
    def test_duplicate_blocks_rejected(self):
        ids = BlockNodeIds([("a-SS-", 2), ("b-SS-", 1), ("a-SS-", 3)])
        with pytest.raises(ValueError, match="unique"):
            ColumnarNodeState(ids)

    def test_empty_duplicate_blocks_name_no_node(self):
        ids = BlockNodeIds([("a-SS-", 2), ("a-SS-", 0), ("b-SS-", 1)])
        state = ColumnarNodeState(ids)
        assert list(state.node_ids) == ["a-SS-000000", "a-SS-000001", "b-SS-000000"]

    def test_distinct_prefixes_give_distinct_ids(self):
        ids = BlockNodeIds([("a-", 12), ("a-1-", 3), ("", 4), ("x", 2)])
        assert len(set(ids)) == len(ids) == 21
        ColumnarNodeState(ids)

    def test_prefix_ending_in_a_digit_rejected(self):
        # "a1" + "000000" would read as "a" + "1000000".
        with pytest.raises(ValueError, match="digit"):
            BlockNodeIds([("a1", 1)])

    def test_duplicate_list_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ColumnarNodeState(["n-1", "n-2", "n-1"])
