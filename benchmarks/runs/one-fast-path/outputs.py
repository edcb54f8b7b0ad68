"""Print digests of the outputs the object uplink path and the columnar
node state feed, so two trees can be compared line by line.

Run from the root of a checkout with ``PYTHONPATH=src:.``:

    PYTHONPATH=src:. python3 benchmarks/runs/one-fast-path/outputs.py

It prints the sha256 of

- ``render_report`` of the ``paper-report`` workload's run
  (``MobileGridExperiment(ExperimentConfig(duration=120, seed=s))``,
  seeds 1 and 2), which is the ``digest`` the e2e benchmark checks;
- the determinism fixture's metrics
  (``tests/experiments/determinism_fixture.py``, sorted-key JSON);
- the 20k-node columnar city golden's collected values
  (``tests/experiments/test_columnar_city_golden.py``, sorted-key JSON).
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.harness import MobileGridExperiment
from repro.experiments.report import render_report

from tests.experiments import test_columnar_city_golden as city_golden
from tests.experiments.determinism_fixture import FIXTURE_CONFIG, collect_metrics


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    for seed in (1, 2):
        config = ExperimentConfig(duration=120.0, seed=seed)
        text = render_report(MobileGridExperiment(config).run())
        print(f"paper-report seed={seed} render_report {sha256(text)}")
    metrics = collect_metrics(run_experiment(FIXTURE_CONFIG))
    print(f"determinism-fixture metrics {sha256(json.dumps(metrics, sort_keys=True))}")
    golden = city_golden.collect(city_golden.run_city())
    print(f"columnar-city-golden {sha256(json.dumps(golden, sort_keys=True))}")


if __name__ == "__main__":
    main()
