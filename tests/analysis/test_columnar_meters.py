"""The analysis layer over columnar meters with array-fed per-node counts.

The columnar engine hands each lane's meter its per-node counts as
``(node_ids, counts)`` arrays, folded into the meter's totals on first
read.  The totals must equal the ``{node_id: count}`` dict the engine
used to build eagerly, and energy accounting and the traffic-shape
statistics over them must come out identical to the object harness,
whose meters count node by node (exact kernel mode, same seed).
"""

from __future__ import annotations

import pytest

from repro.analysis import energy_report
from repro.analysis.traffic_stats import traffic_shape
from repro.core.columnar import ColumnarExperiment
from repro.core.columnar.kernels import EXACT_KERNEL
from repro.experiments import ExperimentConfig
from repro.experiments.harness import MobileGridExperiment

CONFIG = ExperimentConfig(duration=20.0, dth_factors=(0.75, 1.25), seed=11)


@pytest.fixture(scope="module")
def runs():
    columnar = ColumnarExperiment(CONFIG, kernel=EXACT_KERNEL)
    result = columnar.run()
    reference = MobileGridExperiment(CONFIG)
    return columnar, result, reference.run(), reference.nodes


def test_per_node_equals_the_eager_dict(runs):
    columnar, result, _, _ = runs
    for lane in columnar.lanes:
        eager = {
            nid: int(count)
            for nid, count in zip(columnar.node_ids, lane.m_node.tolist())
            if count
        }
        got = result.lanes[lane.name].meter.per_node()
        assert list(got.items()) == list(eager.items())


def test_energy_report_identical(runs):
    columnar, result, reference, nodes = runs
    got = energy_report(result, columnar.source.nodes)
    want = energy_report(reference, nodes)
    assert got.total_wh == want.total_wh
    assert got.per_device_wh == want.per_device_wh


def test_traffic_shape_identical(runs):
    _, result, reference, _ = runs
    for name, lane in result.lanes.items():
        got = traffic_shape(lane, result.duration)
        assert got == traffic_shape(reference.lanes[name], result.duration)
