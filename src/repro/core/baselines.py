"""Baseline filtering policies the paper compares against.

A :class:`FilterPolicy` is the full decision function applied to each
incoming LU at the filtering stage; the ADF itself is implemented separately
in :mod:`repro.core.adf`, while the two baselines live here:

* **ideal LU** — every update is transmitted (the paper's "ideal LU", the
  100 % traffic reference line);
* **general DF** — a single global DTH sized from the average velocity of
  all MNs, applied uniformly.
"""

from __future__ import annotations

import abc

from repro.core.distance_filter import DistanceFilter, FilterDecision
from repro.core.dth import GlobalAverageDth
from repro.network.messages import LocationUpdate

__all__ = ["FilterPolicy", "IdealLUPolicy", "GeneralDistanceFilterPolicy"]


class FilterPolicy(abc.ABC):
    """Decides, per incoming LU, whether to forward it to the broker."""

    #: DTH (metres) the most recent :meth:`process` call gated with; 0.0
    #: for policies without one.  Callers that stamp the DTH onto a
    #: just-transmitted LU (the harness) read it instead of re-deriving it.
    last_dth: float = 0.0

    @abc.abstractmethod
    def process(self, update: LocationUpdate) -> FilterDecision:
        """Process one LU and return the transmit/suppress decision."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short label for reports."""


class IdealLUPolicy(FilterPolicy):
    """No filtering: every LU is forwarded (the paper's reference)."""

    def __init__(self) -> None:
        self.transmitted = 0

    @property
    def name(self) -> str:
        return "ideal"

    def process(self, update: LocationUpdate) -> FilterDecision:
        self.transmitted += 1
        return FilterDecision.TRANSMIT


class GeneralDistanceFilterPolicy(FilterPolicy):
    """The general DF: one global average-velocity-derived DTH for all MNs.

    The paper: "The general DF decides the size of the DTH based on the
    average moving distance of the MN and uses the chosen DTH for filtering
    LUs" — a single threshold that is too large for slow nodes and too small
    for fast ones, which is precisely the weakness the ADF addresses.
    """

    def __init__(self, factor: float, *, report_interval: float = 1.0) -> None:
        self._dth_policy = GlobalAverageDth(factor, report_interval=report_interval)
        self._filter = DistanceFilter()

    @property
    def name(self) -> str:
        return f"general-df({self._dth_policy.factor:g}av)"

    @property
    def dth_policy(self) -> GlobalAverageDth:
        """The underlying global-average DTH policy."""
        return self._dth_policy

    @property
    def distance_filter(self) -> DistanceFilter:
        """The underlying displacement gate (for stats)."""
        return self._filter

    def process(self, update: LocationUpdate) -> FilterDecision:
        self._dth_policy.observe_speed(update.speed)
        dth = self.last_dth = self._dth_policy.dth_for(update.node_id)
        return self._filter.decide(
            update.node_id, update.position, update.timestamp, dth
        )
