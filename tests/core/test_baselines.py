"""Tests for the ideal-LU and general-DF baselines."""

import pytest

from repro.core import FilterDecision, GeneralDistanceFilterPolicy, IdealLUPolicy
from repro.geometry import Vec2
from repro.network.messages import LocationUpdate


def lu(node, t, x, vx=0.0):
    return LocationUpdate(
        sender=node,
        timestamp=t,
        node_id=node,
        position=Vec2(x, 0.0),
        velocity=Vec2(vx, 0.0),
        region_id="R1",
    )


class TestIdealLU:
    def test_everything_transmits(self):
        policy = IdealLUPolicy()
        for t in range(10):
            assert policy.process(lu("n", t, 0.0)) is FilterDecision.TRANSMIT
        assert policy.transmitted == 10

    def test_name(self):
        assert IdealLUPolicy().name == "ideal"

    def test_last_dth_is_zero(self):
        policy = IdealLUPolicy()
        assert policy.last_dth == 0.0
        policy.process(lu("n", 0.0, 0.0, vx=3.0))
        assert policy.last_dth == 0.0


class TestGeneralDF:
    def test_name_includes_factor(self):
        assert GeneralDistanceFilterPolicy(1.25).name == "general-df(1.25av)"

    def test_first_update_transmits(self):
        policy = GeneralDistanceFilterPolicy(1.0)
        assert policy.process(lu("n", 0.0, 0.0, vx=2.0)) is FilterDecision.TRANSMIT

    def test_global_average_shared_across_nodes(self):
        """The vehicle's speed inflates the DTH applied to the walker."""
        policy = GeneralDistanceFilterPolicy(1.0)
        # Teach the global average with a fast vehicle.
        for t in range(10):
            policy.process(lu("veh", t, x=9.0 * t, vx=9.0))
        avg = policy.dth_policy.average_speed
        assert avg > 4.0
        # The walker moving 1.5 m/s per step is now under the global DTH...
        policy.process(lu("walk", 0.0, x=0.0, vx=1.5))
        suppressed = 0
        for t in range(1, 4):
            decision = policy.process(lu("walk", t, x=1.5 * t, vx=1.5))
            if decision is FilterDecision.SUPPRESS:
                suppressed += 1
        assert suppressed >= 2  # over-filtered relative to its mobility

    def test_fast_node_underfiltered(self):
        """A node faster than the global average transmits every step."""
        policy = GeneralDistanceFilterPolicy(1.0)
        for t in range(10):
            policy.process(lu("walk", t, x=1.0 * t, vx=1.0))
        decisions = []
        for t in range(10):
            decisions.append(policy.process(lu("veh", t, x=9.0 * t, vx=9.0)))
        assert all(d is FilterDecision.TRANSMIT for d in decisions)

    def test_stats_exposed(self):
        policy = GeneralDistanceFilterPolicy(1.0)
        policy.process(lu("n", 0.0, 0.0))
        policy.process(lu("n", 1.0, 0.0))
        assert policy.distance_filter.total == 2
        assert policy.distance_filter.suppressed == 1

    def test_last_dth_matches_the_policy_after_process(self):
        policy = GeneralDistanceFilterPolicy(1.25)
        for t in range(6):
            for node, speed in (("walk", 1.0), ("veh", 9.0)):
                policy.process(lu(node, t, x=speed * t, vx=speed))
                assert policy.last_dth == policy.dth_policy.dth_for(node)
        assert policy.last_dth > 0.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            GeneralDistanceFilterPolicy(0.0)
