"""Columnar (struct-of-arrays) simulation core.

Node state lives in numpy arrays — one column per field, one row per
node — and mobility stepping, distance-filter decides and classifier
window statistics run as whole-population array operations.  The object
path (:class:`repro.experiments.harness.MobileGridExperiment`) remains
the reference spec, exactly as ``Campus.region_at_linear`` is the
reference for the spatial index: the columnar engine in *exact* mode is
locked bit-for-bit against it by the golden parity test.
``run_experiment`` runs this engine whenever the config allows it.
"""

from repro.core.columnar.classifier import ColumnarClassifier
from repro.core.columnar.clustering import ColumnarClusterer
from repro.core.columnar.engine import ColumnarExperiment, run_columnar_experiment
from repro.core.columnar.kernels import EXACT_KERNEL, FAST_KERNEL, MathKernel, chain_add
from repro.core.columnar.mobility import (
    ColumnarMobilitySource,
    MobilitySource,
    ObjectMobilitySource,
)
from repro.core.columnar.state import ColumnarNodeState

__all__ = [
    "ColumnarClassifier",
    "ColumnarClusterer",
    "ColumnarExperiment",
    "ColumnarMobilitySource",
    "ColumnarNodeState",
    "EXACT_KERNEL",
    "FAST_KERNEL",
    "MathKernel",
    "MobilitySource",
    "ObjectMobilitySource",
    "chain_add",
    "run_columnar_experiment",
]
