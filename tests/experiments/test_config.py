"""Tests for experiment configuration."""

import pytest

from repro.experiments import ExperimentConfig


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
