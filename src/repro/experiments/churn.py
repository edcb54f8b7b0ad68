"""Churn study: nodes leaving and rejoining the mobile grid.

"Frequent disconnectivity" is the first constraint the paper lists, yet
its evaluation keeps all 140 MNs connected throughout.  This study makes
nodes churn: each connected node disconnects with a per-second hazard and
reconnects after a random outage.  Disconnected nodes send nothing (their
LUs never reach a gateway); on return, the ADF has forgotten them and
their first LU transmits unconditionally.

The run is the evaluation harness with one ADF lane and a
:class:`~repro.faults.NodeChurn` window over every step.  Measured: LU
reduction (now including the reconnection overhead), broker error over
connected nodes, and how many reconnection LUs the churn forced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.faults.schedule import FaultSchedule, NodeChurn
from repro.util.validation import check_in_range, check_positive

__all__ = ["ChurnResult", "churn_study"]


@dataclass(frozen=True)
class ChurnResult:
    """Outcome of one churn configuration."""

    disconnect_hazard: float
    mean_outage: float
    node_count: int
    duration: float
    reduction: float
    mean_rmse: float
    disconnections: int
    reconnection_transmits: int

    @property
    def reconnect_overhead(self) -> float:
        """Reconnection LUs per disconnection (>= 1 when churn occurred)."""
        if self.disconnections == 0:
            return 0.0
        return self.reconnection_transmits / self.disconnections


def churn_study(
    config: ExperimentConfig | None = None,
    *,
    disconnect_hazard: float = 0.005,
    mean_outage: float = 20.0,
    dth_factor: float = 1.0,
) -> ChurnResult:
    """Run the Table 1 population with node churn through the ADF."""
    check_in_range(disconnect_hazard, "disconnect_hazard", 0.0, 1.0)
    check_positive(mean_outage, "mean_outage")
    config = config or ExperimentConfig(duration=120.0)
    # A churn window's end is exclusive: reach one interval past the last
    # step so the final step draws too.
    churn = NodeChurn(
        start=0.0,
        duration=config.duration + config.report_interval,
        hazard=disconnect_hazard,
        mean_outage=mean_outage,
    )
    faults = config.faults.faults if config.faults is not None else ()
    result = run_experiment(
        replace(
            config,
            dth_factors=(dth_factor,),
            include_general_df=False,
            faults=FaultSchedule((*faults, churn)),
        )
    )
    lane = f"adf-{dth_factor:g}"
    # Every reconnection's first LU transmits on the ADF lane (the filter
    # forgot the node), so reconnections count the reconnection LUs.
    return ChurnResult(
        disconnect_hazard=disconnect_hazard,
        mean_outage=mean_outage,
        node_count=result.node_count,
        duration=config.duration,
        reduction=result.reduction_vs_ideal(lane),
        mean_rmse=result.lanes[lane].mean_rmse(with_le=True),
        disconnections=result.disconnections,
        reconnection_transmits=result.reconnections,
    )
