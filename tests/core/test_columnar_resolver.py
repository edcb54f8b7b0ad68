"""RegionResolver against the object path's ``Campus.region_at``.

The columnar engine's region codes must equal, point for point,
``Campus.region_at`` with the node's home region as the fallback where
no region contains the point.  Besides random points, the inputs stress
the edges where a grouped pass could go wrong: every candidate
rectangle's corners and edge midpoints (ties between buildings and
roads, and between overlapping roads), NaN coordinates, points outside
the grid and points exactly on the grid's max edge (the cell index that
must be clipped back into range).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campus import Campus, default_campus
from repro.campus.generator import generate_grid_campus
from repro.core.columnar.engine import RegionResolver
from repro.geometry import Vec2


def _grid_city() -> Campus:
    return generate_grid_campus(
        blocks_x=12, blocks_y=12, block_size=150.0, rng=np.random.default_rng(42)
    )


CAMPUSES = {"grid-city": _grid_city(), "default": default_campus()}


def _edge_points(campus: Campus) -> list[tuple[float, float]]:
    """Corners and edge midpoints of every region, NaNs, outside points
    and points on the grid's max edges."""
    points = []
    for region in campus.regions.values():
        b = region.bounds
        mx = (b.x_min + b.x_max) / 2.0
        my = (b.y_min + b.y_max) / 2.0
        for x in (b.x_min, mx, b.x_max):
            for y in (b.y_min, my, b.y_max):
                if (x, y) != (mx, my):
                    points.append((x, y))
    x_min, x_max, y_min, y_max, _, _ = campus.spatial_index.grid_geometry()
    mx = (x_min + x_max) / 2.0
    my = (y_min + y_max) / 2.0
    nan = math.nan
    points += [
        (x_max, y_max),
        (x_max, y_min),
        (x_min, y_max),
        (x_max, my),
        (mx, y_max),
        (nan, my),
        (mx, nan),
        (nan, nan),
        (x_min - 1.0, my),
        (x_max + 1.0, my),
        (mx, y_min - 1e-9),
        (mx, math.nextafter(y_max, math.inf)),
        (math.inf, my),
        (-math.inf, -math.inf),
    ]
    return points


EDGE_POINTS = {name: _edge_points(c) for name, c in CAMPUSES.items()}


def _expected(
    campus: Campus, resolver: RegionResolver, points, fallback: np.ndarray
) -> np.ndarray:
    want = fallback.copy()
    for i, (x, y) in enumerate(points):
        region = campus.region_at(Vec2(x, y))
        if region is not None:
            want[i] = resolver.code_of[region.region_id]
    return want


def _resolve(resolver: RegionResolver, points, fallback: np.ndarray):
    x = np.asarray([p[0] for p in points], dtype=np.float64)
    y = np.asarray([p[1] for p in points], dtype=np.float64)
    return resolver.resolve(x, y, fallback)


@pytest.mark.parametrize("name", sorted(CAMPUSES))
def test_every_edge_point_matches_region_at(name):
    campus = CAMPUSES[name]
    resolver = RegionResolver(campus)
    points = EDGE_POINTS[name]
    fallback = np.arange(len(points), dtype=np.int64) % len(resolver.region_ids)
    got = _resolve(resolver, points, fallback)
    assert got.dtype == fallback.dtype
    np.testing.assert_array_equal(got, _expected(campus, resolver, points, fallback))


@st.composite
def _case(draw):
    name = draw(st.sampled_from(sorted(CAMPUSES)))
    campus = CAMPUSES[name]
    x_min, x_max, y_min, y_max, _, _ = campus.spatial_index.grid_geometry()
    pad = 20.0
    random_point = st.tuples(
        st.floats(x_min - pad, x_max + pad, allow_nan=False),
        st.floats(y_min - pad, y_max + pad, allow_nan=False),
    )
    point = st.one_of(random_point, st.sampled_from(EDGE_POINTS[name]))
    points = draw(st.lists(point, min_size=1, max_size=200))
    n_regions = len(campus.regions)
    fallback = draw(
        st.lists(
            st.integers(0, n_regions - 1),
            min_size=len(points),
            max_size=len(points),
        )
    )
    return name, points, np.asarray(fallback, dtype=np.int64)


RESOLVERS = {name: RegionResolver(c) for name, c in CAMPUSES.items()}


@settings(max_examples=200, deadline=None)
@given(case=_case())
def test_resolve_matches_region_at_with_home_fallback(case):
    name, points, fallback = case
    resolver = RESOLVERS[name]
    before = fallback.copy()
    got = _resolve(resolver, points, fallback)
    np.testing.assert_array_equal(fallback, before)  # input untouched
    want = _expected(CAMPUSES[name], resolver, points, fallback)
    np.testing.assert_array_equal(got, want)
