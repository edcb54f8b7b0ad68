"""Columnar node state: seeding from live nodes, and invariants."""

from __future__ import annotations

import pytest

from repro.campus import default_campus
from repro.core.columnar.state import (
    NO_PATTERN,
    PATTERN_CODES,
    PATTERN_FROM_CODE,
    ColumnarNodeState,
)
from repro.mobility.population import build_population, table1_spec
from repro.util.rng import RngRegistry


class TestFromNodes:
    def test_population_positions_and_patterns(self):
        campus = default_campus()
        config_rng = RngRegistry(42)
        nodes = build_population(campus, table1_spec(), config_rng)
        state = ColumnarNodeState.from_nodes(nodes)
        assert len(state) == len(nodes)
        for i, node in enumerate(nodes):
            assert state.x[i] == node.position.x
            assert state.y[i] == node.position.y
            assert state.vx[i] == node.velocity.x
            assert state.vy[i] == node.velocity.y
            if node.true_state is not None:
                assert (
                    PATTERN_FROM_CODE[int(state.pattern[i])] == node.true_state
                )


class TestInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ColumnarNodeState(["a", "b", "a"])

    def test_index_of_matches_order(self):
        state = ColumnarNodeState(["x", "y", "z"])
        assert [state.index_of[nid] for nid in state.node_ids] == [0, 1, 2]

    def test_pattern_codes_bijective(self):
        assert sorted(PATTERN_CODES.values()) == [0, 1, 2]
        for state_, code in PATTERN_CODES.items():
            assert PATTERN_FROM_CODE[code] is state_
        assert PATTERN_FROM_CODE[NO_PATTERN] is None
