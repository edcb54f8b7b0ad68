"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.adf import AdfConfig
from repro.faults.schedule import FaultSchedule
from repro.mobility.population import PopulationSpec, table1_spec
from repro.telemetry import TelemetryConfig
from repro.util.validation import check_in_range, check_positive

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full evaluation run needs.

    Defaults reproduce the paper: 140 MNs, 1800 s, 1 Hz reporting, DTH
    factors 0.75/1.0/1.25 x average velocity.  ``duration`` can be shrunk
    for tests and benchmarks — the qualitative orderings are stable well
    below 1800 s.
    """

    duration: float = 1800.0
    report_interval: float = 1.0
    dth_factors: tuple[float, ...] = (0.75, 1.0, 1.25)
    seed: int = 42
    population: PopulationSpec = field(default_factory=table1_spec)
    alpha: float = 0.75
    direction_weight: float = 0.0
    recluster_interval: float = 30.0
    smoothing_alpha: float = 0.4
    include_general_df: bool = False
    channel_loss: float = 0.0
    channel_latency: float = 0.0
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Deterministic fault injection (None = the paper's ideal substrate).
    #: The harness binds the schedule to every lane's gateways and channels
    #: via :class:`repro.faults.FaultInjector`, and takes nodes offline for
    #: its churn windows via :class:`repro.faults.ChurnTracker` (stream
    #: ``faults/churn``).
    faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        check_positive(self.duration, "duration")
        check_positive(self.report_interval, "report_interval")
        if not self.dth_factors:
            raise ValueError("need at least one DTH factor")
        for factor in self.dth_factors:
            check_positive(factor, "dth_factor")
        check_positive(self.alpha, "alpha")
        check_positive(self.recluster_interval, "recluster_interval")
        check_in_range(
            self.smoothing_alpha, "smoothing_alpha", 0.0, 1.0, inclusive=False
        )

    def adf_config(self, dth_factor: float) -> AdfConfig:
        """The ADF configuration for one DTH factor under this experiment."""
        return AdfConfig(
            dth_factor=dth_factor,
            alpha=self.alpha,
            direction_weight=self.direction_weight,
            recluster_interval=self.recluster_interval,
            report_interval=self.report_interval,
        )

    @property
    def lane_names(self) -> tuple[str, ...]:
        """The lanes a run has: ``ideal``, ``adf-<factor>`` per DTH factor,
        then ``gdf-<factor>`` per factor with the general DF on."""
        kinds = ("adf", "gdf") if self.include_general_df else ("adf",)
        factors = [f"{factor:g}" for factor in self.dth_factors]
        return ("ideal", *(f"{kind}-{f}" for kind in kinds for f in factors))

    def steps(self) -> int:
        """Number of reporting intervals in the run."""
        return int(round(self.duration / self.report_interval))

    def with_duration(self, duration: float) -> "ExperimentConfig":
        """A copy with a different duration (tests/benchmarks)."""
        return replace(self, duration=duration)
