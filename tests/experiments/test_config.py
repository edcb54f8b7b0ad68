"""Tests for experiment configuration."""

import json

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig
from repro.experiments.config_io import (
    apply_overrides,
    config_from_dict,
    load_config,
)
from repro.telemetry import Severity, TelemetryConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.duration == 1800.0
        assert cfg.report_interval == 1.0
        assert cfg.dth_factors == (0.75, 1.0, 1.25)
        assert cfg.population.total_for(5, 6) == 140

    def test_steps(self):
        assert ExperimentConfig(duration=60.0).steps() == 60
        assert ExperimentConfig(duration=60.0, report_interval=2.0).steps() == 30

    def test_lane_names(self):
        assert ExperimentConfig().lane_names == (
            "ideal", "adf-0.75", "adf-1", "adf-1.25"
        )
        cfg = ExperimentConfig(dth_factors=(1.0,), include_general_df=True)
        assert cfg.lane_names == ("ideal", "adf-1", "gdf-1")


class TestValidation:
    def test_duration_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration=0.0)

    def test_factors_required(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dth_factors=())

    def test_factors_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dth_factors=(1.0, -1.0))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_smoothing_alpha_inside_unit_interval(self, alpha):
        """Brown's constant must lie in (0, 1): at 1.0 the columnar
        estimator divided by zero, and past it a run went on silently."""
        with pytest.raises(ValueError, match="smoothing_alpha"):
            ExperimentConfig(smoothing_alpha=alpha)

    def test_with_duration(self):
        cfg = ExperimentConfig().with_duration(60.0)
        assert cfg.duration == 60.0
        assert cfg.dth_factors == (0.75, 1.0, 1.25)


class TestAdfConfig:
    def test_propagates_parameters(self):
        cfg = ExperimentConfig(alpha=0.5, recluster_interval=15.0)
        adf_cfg = cfg.adf_config(1.25)
        assert adf_cfg.dth_factor == 1.25
        assert adf_cfg.alpha == 0.5
        assert adf_cfg.recluster_interval == 15.0


class TestConfigFileFields:
    """Config-file data for fields that are not plain values: a mapping is
    parsed into its dataclass, and what a file cannot express is refused
    when it is loaded, not when a run first touches it."""

    def test_telemetry_mapping_becomes_a_telemetry_config(self):
        cfg = config_from_dict(
            {
                "telemetry": {
                    "enabled": True,
                    "sample_interval": 5.0,
                    "min_severity": "warning",
                }
            }
        )
        assert cfg.telemetry == TelemetryConfig(
            enabled=True, sample_interval=5.0, min_severity=Severity.WARNING
        )
        # Untouched fields keep their defaults.
        assert cfg.telemetry.event_log_capacity == TelemetryConfig().event_log_capacity

    def test_unknown_telemetry_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown telemetry keys: \['enable'\]"):
            config_from_dict({"telemetry": {"enable": True}})

    def test_unknown_min_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown min_severity 'loud'"):
            config_from_dict({"telemetry": {"min_severity": "loud"}})

    def test_faults_refused_naming_the_key(self, tmp_path):
        with pytest.raises(ValueError, match="'faults'"):
            config_from_dict({"faults": [{"kind": "outage"}]})
        path = tmp_path / "faulted.json"
        path.write_text(json.dumps({"duration": 5.0, "faults": []}))
        with pytest.raises(ValueError, match="'faults'"):
            load_config(path)

    def test_sweep_overrides_read_values_the_same_way(self):
        """A sweep axis or ``--set`` value goes through the same parsing:
        a telemetry mapping becomes a ``TelemetryConfig`` and ``faults``
        is refused (both used to pass through and fail mid-run)."""
        cfg = apply_overrides(
            ExperimentConfig(), {"telemetry": {"enabled": True}, "dth_factors": [1]}
        )
        assert cfg.telemetry == TelemetryConfig(enabled=True)
        assert cfg.dth_factors == (1,)
        with pytest.raises(ValueError, match="'faults'"):
            apply_overrides(ExperimentConfig(), {"faults": []})
        with pytest.raises(ValueError, match="unknown telemetry keys"):
            apply_overrides(ExperimentConfig(), {"telemetry": {"on": True}})

    def test_report_runs_a_telemetry_config_file(self, capsys, tmp_path):
        """``repro report --config`` with a telemetry table runs (it used
        to die on the unparsed mapping), and a ``faults`` key exits 2 with
        one line naming it."""
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps({"dth_factors": [1.0], "telemetry": {"enabled": True}})
        )
        assert main(["report", "--duration", "5", "--config", str(config)]) == 0
        assert "adf-1" in capsys.readouterr().out
        config.write_text(json.dumps({"faults": [{"kind": "outage"}]}))
        assert main(["report", "--duration", "5", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'faults'" in err and len(err.splitlines()) == 1
