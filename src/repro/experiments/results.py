"""Result containers for the evaluation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.network.traffic import TrafficMeter
from repro.util.timeseries import TimeSeries

__all__ = ["RegionErrors", "LaneResult", "ExperimentResult", "LANE_KINDS"]


@dataclass
class RegionErrors:
    """Accumulated squared location errors, split by region kind.

    Figures 8 and 9 report per-region-kind RMSE over the whole run, so we
    keep running sums of squared errors and sample counts for roads and
    buildings separately.
    """

    road_sq_sum: float = 0.0
    road_count: int = 0
    building_sq_sum: float = 0.0
    building_count: int = 0

    def add(self, error: float, *, is_road: bool) -> None:
        """Record one per-node error sample."""
        if error < 0:
            raise ValueError(f"error must be >= 0, got {error}")
        if is_road:
            self.road_sq_sum += error * error
            self.road_count += 1
        else:
            self.building_sq_sum += error * error
            self.building_count += 1

    @property
    def road_rmse(self) -> float:
        """RMSE over all road-node samples."""
        if self.road_count == 0:
            return 0.0
        return math.sqrt(self.road_sq_sum / self.road_count)

    @property
    def building_rmse(self) -> float:
        """RMSE over all building-node samples."""
        if self.building_count == 0:
            return 0.0
        return math.sqrt(self.building_sq_sum / self.building_count)

    @property
    def road_to_building_ratio(self) -> float:
        """How much worse roads are than buildings (paper: ~4.5-4.7x)."""
        building = self.building_rmse
        return self.road_rmse / building if building > 0 else math.inf


#: Valid values of :attr:`LaneResult.kind`.
LANE_KINDS = ("ideal", "adf", "gdf")


@dataclass
class LaneResult:
    """Everything measured for one filtering policy ("lane") in a run."""

    name: str
    dth_factor: float | None
    meter: TrafficMeter
    rmse_with_le: TimeSeries = field(default_factory=TimeSeries)
    rmse_without_le: TimeSeries = field(default_factory=TimeSeries)
    region_errors_with_le: RegionErrors = field(default_factory=RegionErrors)
    region_errors_without_le: RegionErrors = field(default_factory=RegionErrors)
    filter_summary: dict[str, float] = field(default_factory=dict)
    #: Per-second live cluster count (empty for non-ADF lanes).
    cluster_series: TimeSeries = field(default_factory=TimeSeries)
    #: Which policy family produced this lane ("ideal" / "adf" / "gdf").
    #: Set from the policy type by the harness — lane *names* are free-form
    #: display labels and must not be parsed for semantics.
    kind: str = "ideal"

    def __post_init__(self) -> None:
        if self.kind not in LANE_KINDS:
            raise ValueError(
                f"kind must be one of {LANE_KINDS}, got {self.kind!r}"
            )

    @property
    def total_lus(self) -> int:
        """Total LUs this lane transmitted to the broker."""
        return self.meter.total

    def mean_rmse(self, *, with_le: bool) -> float:
        """Run-average of the per-second RMSE series."""
        series = self.rmse_with_le if with_le else self.rmse_without_le
        return series.mean() if len(series) else 0.0

    def le_improvement(self) -> float:
        """RMSE(with LE) / RMSE(without LE); paper reports 0.33-0.47."""
        without = self.mean_rmse(with_le=False)
        if without == 0:
            return 1.0
        return self.mean_rmse(with_le=True) / without


@dataclass
class ExperimentResult:
    """The output of one full harness run."""

    duration: float
    report_interval: float
    node_count: int
    lanes: dict[str, LaneResult]
    road_region_ids: list[str]
    building_region_ids: list[str]
    classification_accuracy: float = 0.0
    average_fleet_speed: float = 0.0
    #: Gateway handoffs observed over the run (mobility-driven signalling
    #: that exists regardless of LU filtering).
    handoffs: int = 0
    #: Node churn over the run (both 0 without a NodeChurn fault): outages
    #: begun, and nodes back from one.  Each reconnection's first LU
    #: transmits on every filtering lane.
    disconnections: int = 0
    reconnections: int = 0
    #: Telemetry snapshot (metrics/samples/spans/events) when the run had
    #: telemetry enabled; ``None`` otherwise.
    telemetry: dict | None = None

    @property
    def ideal(self) -> LaneResult:
        """The unfiltered reference lane."""
        return self.lanes["ideal"]

    def adf_lanes(self) -> list[LaneResult]:
        """The ADF lanes ordered by DTH factor.

        Selection keys off the stored policy ``kind`` (plus the DTH
        factor for ordering), not the lane name — names are display
        labels and may be customised freely.
        """
        adf = [
            lane
            for lane in self.lanes.values()
            if lane.kind == "adf" and lane.dth_factor is not None
        ]
        return sorted(adf, key=lambda lane: lane.dth_factor)

    def reduction_vs_ideal(self, lane_name: str) -> float:
        """Fractional LU reduction of a lane relative to the ideal lane."""
        ideal_total = self.ideal.total_lus
        if ideal_total == 0:
            return 0.0
        return 1.0 - self.lanes[lane_name].total_lus / ideal_total

    def transmission_rate_by_kind(self, lane_name: str) -> dict[str, float]:
        """Fraction of ideal LUs a lane transmitted, per region kind (Fig. 6)."""
        lane = self.lanes[lane_name]
        out: dict[str, float] = {}
        for kind, region_ids in (
            ("road", self.road_region_ids),
            ("building", self.building_region_ids),
        ):
            ideal_count = self.ideal.meter.total_for_regions(region_ids)
            lane_count = lane.meter.total_for_regions(region_ids)
            out[kind] = lane_count / ideal_count if ideal_count else 0.0
        return out
