"""Pinned outputs of the generality, churn and chaos studies.

Each study's figures are pinned at small sizes so a refactor of the step
loop they run on cannot move them unnoticed:

* ``generality_study(n_nodes=12, duration=40.0)`` — per model, the exact
  LU count and reduction; RMSE means to a relative 1e-12 (a mean taken
  with ``np.mean`` instead of ``sum / len`` may move the last ulp);
* ``churn_study`` at hazard 0, where no draw can change an outcome;
* the sha256 of ``python -m repro chaos --smoke --export-json`` with and
  without ``--churn``.
"""

import hashlib

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig
from repro.experiments.churn import churn_study
from repro.experiments.generality import generality_study

#: model -> (LUs sent, reduction, mean RMSE with LE, mean RMSE without LE)
GENERALITY_PINS = {
    "random-waypoint": (342, 0.2875, 0.2286813229061556, 0.9438680073561798),
    "gauss-markov": (
        336,
        0.30000000000000004,
        0.28614762186777426,
        1.0054944725428159,
    ),
    "manhattan": (369, 0.23124999999999996, 0.1599536064704026, 0.8766770632479526),
}

#: ``python -m repro chaos --smoke [--churn] --export-json PATH`` digests.
CHAOS_SMOKE_SHA256 = {
    (): "4a460ba21dfc9301ffa0eefd5d0ec786bdabca2adee7dc8a062fb22dce32da10",
    ("--churn",): "6cfab08978c4269d6f28ee9dcf0fcd88420e0d5555f6acc9cad91fb57adab0ca",
}


class TestGeneralityPins:
    @pytest.fixture(scope="class")
    def results(self):
        return {r.model: r for r in generality_study(n_nodes=12, duration=40.0)}

    @pytest.mark.parametrize("model", sorted(GENERALITY_PINS))
    def test_model(self, results, model):
        sent, reduction, rmse_on, rmse_off = GENERALITY_PINS[model]
        result = results[model]
        ideal = 12 * 40
        assert round((1.0 - result.reduction) * ideal) == sent
        assert result.reduction == reduction
        assert result.mean_rmse_with_le == pytest.approx(rmse_on, rel=1e-12)
        assert result.mean_rmse_without_le == pytest.approx(rmse_off, rel=1e-12)


class TestChurnPins:
    @pytest.mark.parametrize(
        "duration, reduction, mean_rmse",
        [
            (20.0, 0.46178571428571424, 0.7085255675449971),
            (40.0, 0.4866071428571429, 0.7801591687978733),
        ],
    )
    def test_zero_hazard(self, duration, reduction, mean_rmse):
        result = churn_study(
            ExperimentConfig(duration=duration), disconnect_hazard=0.0
        )
        assert result.node_count == 140
        assert result.disconnections == 0
        assert result.reconnection_transmits == 0
        assert result.reduction == reduction
        assert result.mean_rmse == pytest.approx(mean_rmse, rel=1e-12)


class TestChaosSmokePins:
    @pytest.mark.parametrize("flags", sorted(CHAOS_SMOKE_SHA256))
    def test_export_digest(self, tmp_path, capsys, flags):
        path = tmp_path / "chaos.json"
        assert main(["chaos", "--smoke", *flags, "--export-json", str(path)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == CHAOS_SMOKE_SHA256[flags]
