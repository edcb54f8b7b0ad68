"""Generality study: does the ADF work beyond the paper's mobility model?

The paper's mobility is hand-derived (SS/RMS/LMS on a campus).  Here the
same ADF + Location Estimator pipeline runs over fleets driven by the
standard generators of the mobile-networking literature — Random Waypoint,
Gauss-Markov and Manhattan grid — in an open field.  If the reduction and
bounded-error properties only held for the campus generator, the
reproduction would be suspect; they hold for all of them.

Each fleet runs through ``run_experiment`` on a one-region campus, the
arena, with a single ADF lane.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campus import Campus, NetworkAccess, Region, RegionKind
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.geometry import Rect
from repro.mobility.classic import (
    GaussMarkovModel,
    ManhattanGridModel,
    RandomWaypointModel,
)
from repro.mobility.node import MobileNode
from repro.mobility.states import VelocityBand
from repro.util.rng import RngRegistry

__all__ = ["GeneralityResult", "MOBILITY_GENERATORS", "generality_study"]

#: The open-field arena the classic models roam.
_ARENA = Rect(0.0, 0.0, 400.0, 400.0)
_BAND = VelocityBand(0.5, 4.0)


def _rwp(position, rng):
    return RandomWaypointModel(position, _ARENA, _BAND, rng, max_pause=20.0)


def _gauss_markov(position, rng):
    return GaussMarkovModel(position, _ARENA, _BAND, rng, alpha=0.85)


def _manhattan(position, rng):
    return ManhattanGridModel(position, _ARENA, _BAND, rng, block=50.0)


MOBILITY_GENERATORS = {
    "random-waypoint": _rwp,
    "gauss-markov": _gauss_markov,
    "manhattan": _manhattan,
}


@dataclass(frozen=True)
class GeneralityResult:
    """ADF behaviour under one mobility generator."""

    model: str
    node_count: int
    duration: float
    reduction: float
    mean_rmse_with_le: float
    mean_rmse_without_le: float

    @property
    def le_ratio(self) -> float:
        """RMSE(with LE) / RMSE(without LE)."""
        if self.mean_rmse_without_le == 0:
            return 1.0
        return self.mean_rmse_with_le / self.mean_rmse_without_le


def arena_campus() -> Campus:
    """The campus the fleets roam: one building region covering the arena."""
    arena = Region(
        region_id="arena",
        name="open-field arena",
        kind=RegionKind.BUILDING,
        bounds=_ARENA,
        access=NetworkAccess.WLAN,
        entrance=_ARENA.center,
    )
    return Campus([arena])


def classic_fleet(label: str, factory, n_nodes: int, seed: int) -> list[MobileNode]:
    """*n_nodes* nodes driven by the generator *factory*, started at
    random arena points; each node draws from its own stream of *seed*
    forked by *label*."""
    registry = RngRegistry(seed).fork(label)
    nodes = []
    for i in range(n_nodes):
        rng = registry.stream(f"node-{i}")
        start = _ARENA.random_point(rng)
        nodes.append(MobileNode(f"{label}-{i}", factory(start, rng)))
    return nodes


def generality_study(
    *,
    models: dict | None = None,
    n_nodes: int = 40,
    duration: float = 120.0,
    dth_factor: float = 1.0,
    seed: int = 42,
) -> list[GeneralityResult]:
    """Run the ADF pipeline over each mobility generator.

    One fleet per generator, identical sizes and seeds; per-second LUs
    through an ADF at *dth_factor* into two brokers (LE on/off); returns
    reduction and mean RMSE per generator.
    """
    models = models if models is not None else MOBILITY_GENERATORS
    if not models:
        raise ValueError("need at least one mobility generator")
    config = ExperimentConfig(duration=duration, dth_factors=(dth_factor,), seed=seed)
    lane = f"adf-{dth_factor:g}"
    out: list[GeneralityResult] = []
    for label, factory in models.items():
        result = run_experiment(
            config,
            campus=arena_campus(),
            nodes=classic_fleet(label, factory, n_nodes, seed),
        )
        adf = result.lanes[lane]
        out.append(
            GeneralityResult(
                model=label,
                node_count=n_nodes,
                duration=duration,
                reduction=result.reduction_vs_ideal(lane),
                mean_rmse_with_le=adf.mean_rmse(with_le=True),
                mean_rmse_without_le=adf.mean_rmse(with_le=False),
            )
        )
    return out
