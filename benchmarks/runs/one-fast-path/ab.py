"""Same-interpreter A/B of object-harness trees on one paper-size run.

Usage::

    python3 ab.py --pairs 16 parent=PATH/src change=PATH/src [NAME=SRC ...]

Each ``NAME=SRC`` names a ``src`` directory that holds a ``repro``
package.  Every tree is imported into this one process under its own
set of ``repro*`` entries in ``sys.modules``, which are swapped in before
the tree runs, so all trees share one interpreter, one heap and one
host state.  A warm-up run while a tree is first imported also imports
every module it loads lazily.

Each round runs every tree once, in an order that rotates from round to
round: build ``MobileGridExperiment(ExperimentConfig(duration=60,
seed=1))`` untimed, then time ``run()`` plus ``render_report``.  The
output lists each round's times, each tree's median, and for every
pair of trees the later one's per-round ratio to the earlier one: the
median, the quartiles and how many rounds it was slower.  The last lines give the
sha256 of each tree's report, which must agree.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import statistics
import sys
import time
from typing import Any

DURATION = 60.0
SEED = 1


#: Every tree's ``src`` directory; only the running tree's is on sys.path.
SOURCES: set[str] = set()


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _activate(src: str, modules: dict[str, Any]) -> None:
    for name in [name for name in sys.modules if _is_repro(name)]:
        del sys.modules[name]
    sys.modules.update(modules)
    sys.path[:] = [src] + [p for p in sys.path if p not in SOURCES]


class Tree:
    def __init__(self, name: str, src: str) -> None:
        self.name = name
        self.src = src
        SOURCES.add(src)
        _activate(src, {})
        from repro.experiments import ExperimentConfig
        from repro.experiments.harness import MobileGridExperiment
        from repro.experiments.report import render_report

        self._config = ExperimentConfig
        self._experiment = MobileGridExperiment
        self._render = render_report
        self.report = self._once()[1]
        self.modules = {n: m for n, m in sys.modules.items() if _is_repro(n)}
        self.times: list[float] = []

    def _once(self) -> tuple[float, str]:
        experiment = self._experiment(self._config(duration=DURATION, seed=SEED))
        gc.collect()
        start = time.perf_counter()
        text = self._render(experiment.run())
        return time.perf_counter() - start, text

    def run(self) -> float:
        _activate(self.src, self.modules)
        elapsed, text = self._once()
        if text != self.report:
            raise SystemExit(f"{self.name}: report changed between runs")
        self.times.append(elapsed)
        return elapsed


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=16)
    parser.add_argument("trees", nargs="+", metavar="NAME=SRC")
    args = parser.parse_args()
    trees = [Tree(*spec.split("=", 1)) for spec in args.trees]
    print(f"python {sys.version.split()[0]}, duration {DURATION} s, seed {SEED}")
    for i in range(args.pairs):
        shift = i % len(trees)
        order = trees[shift:] + trees[:shift]
        cells = [f"{tree.name} {tree.run():.3f}" for tree in order]
        print(f"round {i + 1:2d}: " + ", ".join(cells))
    for tree in trees:
        print(f"{tree.name}: median {statistics.median(tree.times):.3f} s")
    for i, base in enumerate(trees):
        for tree in trees[i + 1 :]:
            ratios = [t / b for t, b in zip(tree.times, base.times)]
            q1, q2, q3 = _quartiles(ratios)
            slower = sum(r > 1.0 for r in ratios)
            print(
                f"{tree.name}/{base.name}: median {q2:.3f} "
                f"[{q1:.3f}, {q3:.3f}], slower in {slower} of {len(ratios)}"
            )
    for tree in trees:
        digest = hashlib.sha256(tree.report.encode("utf-8")).hexdigest()
        print(f"{tree.name} render_report sha256 {digest}")


if __name__ == "__main__":
    main()
