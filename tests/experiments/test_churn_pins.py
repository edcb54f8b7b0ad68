"""Pinned churn-study outputs at a non-zero hazard.

The churn study runs on the evaluation harness: disconnect draws come
from stream ``faults/churn`` and a returning node is forgotten by the
filter just before its first LU.  A change to either rule moves these.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.churn import churn_study


def test_hazard_002_over_40_s():
    result = churn_study(ExperimentConfig(duration=40.0), disconnect_hazard=0.02)
    assert result.disconnections == 94
    assert result.reconnection_transmits == 55
    assert result.reduction == 0.48908007941760423
    assert result.mean_rmse == pytest.approx(0.7557594206394209, rel=1e-12)


def test_every_node_alternates_at_hazard_one():
    """A sub-interval outage at hazard 1: off one step, back the next."""
    result = churn_study(
        ExperimentConfig(duration=10.0), disconnect_hazard=1.0, mean_outage=1e-6
    )
    assert result.disconnections == result.reconnection_transmits == 700
    assert result.reduction == 0.0
    assert result.mean_rmse == 0.0
