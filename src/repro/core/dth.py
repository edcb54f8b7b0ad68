"""Distance Threshold (DTH) policies.

The paper evaluates DTH sizes of 0.75, 1.0 and 1.25 times an *average
velocity* ("av").  A velocity becomes a distance through the LU reporting
interval: with the paper's 1 Hz reporting, DTH(metres) = factor x av(m/s) x
1 s.  The **general DF** derives one DTH from the average velocity of *all*
MNs; the **ADF** derives a per-node DTH from the node's *cluster* average,
which is the paper's key idea.
"""

from __future__ import annotations

import abc

from repro.core.cluster_manager import ClusterManager
from repro.util.validation import check_non_negative, check_positive

__all__ = ["DthPolicy", "FixedDth", "GlobalAverageDth", "ClusterAverageDth"]


class DthPolicy(abc.ABC):
    """Maps a node to its current Distance Threshold in metres."""

    @abc.abstractmethod
    def dth_for(self, node_id: str) -> float:
        """The node's DTH (>= 0) right now."""


class FixedDth(DthPolicy):
    """One constant DTH for everyone (the simplest possible DF)."""

    def __init__(self, dth: float) -> None:
        self._dth = check_non_negative(dth, "dth")

    def dth_for(self, node_id: str) -> float:
        return self._dth


class GlobalAverageDth(DthPolicy):
    """The general DF's policy: factor x global average speed.

    The average is maintained as a running mean over every observed speed,
    so it converges to the fleet's average velocity as the run progresses.
    """

    def __init__(self, factor: float, *, report_interval: float = 1.0) -> None:
        self.factor = check_positive(factor, "factor")
        self.report_interval = check_positive(report_interval, "report_interval")
        self._speed_sum = 0.0
        self._count = 0

    def observe_speed(self, speed: float) -> None:
        """Feed one observed speed into the running global average."""
        check_non_negative(speed, "speed")
        self._speed_sum += speed
        self._count += 1

    @property
    def average_speed(self) -> float:
        """Current global average speed (0 before any observation)."""
        return self._speed_sum / self._count if self._count else 0.0

    def dth_for(self, node_id: str) -> float:
        return self.factor * self.average_speed * self.report_interval


class ClusterAverageDth(DthPolicy):
    """The ADF's policy: factor x the node's *cluster* average speed.

    Nodes outside any cluster (SS nodes, or nodes not yet observed) get a
    zero DTH, i.e. their updates pass unfiltered — conservative and safe,
    and SS nodes barely generate displacement anyway.
    """

    def __init__(
        self,
        factor: float,
        manager: ClusterManager,
        *,
        report_interval: float = 1.0,
    ) -> None:
        self.factor = check_positive(factor, "factor")
        self.report_interval = check_positive(report_interval, "report_interval")
        self._manager = manager
        # dth_for runs once per LU in the ADF; go straight to the
        # clusterer instead of hopping through the manager each time.
        self._clusterer = manager.clusterer

    def dth_for(self, node_id: str) -> float:
        cluster = self._clusterer.cluster_of(node_id)
        if cluster is None:
            return 0.0
        return self.factor * cluster.average_speed * self.report_interval
