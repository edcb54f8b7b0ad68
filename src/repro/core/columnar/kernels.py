"""Math kernels for the columnar core: *exact* and *fast* variants.

The object path computes per-node quantities with scalar ``math.hypot``,
``math.atan2`` and ``math.log``.  Their numpy counterparts are **not**
bit-identical on this platform (numpy routes them through its own SIMD
implementations, which differ from libm in the last ulp on a fraction of
inputs), while ``np.cos``/``np.sin``/``np.sqrt`` and elementwise
``+ - * /`` *are* exact matches.  The columnar engine is therefore
parameterised by a :class:`MathKernel`:

* :data:`EXACT_KERNEL` evaluates hypot/atan2/log with scalar ``math.*``
  loops — slower, but reproduces the object path bit for bit (the golden
  parity test runs in this mode);
* :data:`FAST_KERNEL` uses the vectorised numpy equivalents — the mode
  the 100k+ benchmarks and the population scaling study run in.

:func:`chain_add` vectorises a *sequential* accumulation chain
(``acc += v`` in a Python loop) in both modes: ``np.cumsum`` accumulates
strictly left to right, unlike ``np.sum``'s pairwise reduction, so its
final element is bit-identical to the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MathKernel", "EXACT_KERNEL", "FAST_KERNEL", "chain_add", "running_chain"]


def _scalar_map2(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply a scalar two-argument function elementwise via ``math.*``."""
    return np.fromiter(
        (fn(x, y) for x, y in zip(a.tolist(), b.tolist())),
        dtype=np.float64,
        count=len(a),
    )


def _exact_hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _scalar_map2(math.hypot, x, y)


def _exact_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _scalar_map2(math.atan2, y, x)


def _exact_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(
        (math.log(v) for v in x.tolist()), dtype=np.float64, count=len(x)
    )


def _exact_pow2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Python's ``x ** 2`` routes through C ``pow``, which differs from a
    # plain multiply in the last ulp on a fraction of inputs.
    # ``np.float_power`` calls the same libm ``pow`` and matches it bit for
    # bit, so the exact variant is vectorised too.
    return np.float_power(x, 2.0, out=out)


def _fast_pow2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(x, x, out=out)


@dataclass(frozen=True)
class MathKernel:
    """The three transcendental kernels whose numpy forms are inexact.

    Everything else the engine needs (cos, sin, sqrt, arithmetic,
    comparisons) vectorises bit-identically and is used directly.
    """

    name: str
    hypot: object
    atan2: object
    log: object
    pow2: object

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MathKernel({self.name})"


EXACT_KERNEL = MathKernel(
    "exact", _exact_hypot, _exact_atan2, _exact_log, _exact_pow2
)
FAST_KERNEL = MathKernel("fast", np.hypot, np.arctan2, np.log, _fast_pow2)


def chain_add(initial: float, values: np.ndarray) -> float:
    """``initial`` plus *values* accumulated strictly left to right.

    Bit-identical to ``acc = initial; for v in values: acc += v`` because
    ``np.cumsum`` is a sequential scan, not a pairwise reduction.
    """
    if len(values) == 0:
        return initial
    return float(running_chain(initial, values)[-1])


def running_chain(initial: float, values: np.ndarray) -> np.ndarray:
    """All intermediate sums of the left-to-right chain (one per value).

    ``running_chain(s, v)[i]`` equals the scalar ``s + v[0] + ... + v[i]``
    accumulated sequentially — the general-DF's global speed average needs
    every prefix, not just the final total.
    """
    acc = np.empty(len(values) + 1, dtype=np.float64)
    acc[0] = initial
    acc[1:] = values
    return np.cumsum(acc, out=acc)[1:]
