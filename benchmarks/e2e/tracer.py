"""Layer spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` replaces the public functions named in :data:`LAYERS`
with thin wrappers for the duration of one traced repetition.  Each
wrapper opens a span (start, end, parent = the span open when it was
called) around the call.  Spans are folded into per-layer totals as they
close, so a run with millions of calls keeps no span list: a layer's
*self time* is each span's duration minus the part of it covered by its
child spans, which in a single-threaded program is exactly the sum of
the children's durations.

The object path of the paper report crosses a wrapped boundary about
275k times a repetition, so the wrapper's own cost decides the tracing
overhead.  Two things keep it low.  Each wrapper is compiled with the
wrapped function's own parameter list, so both calls stay on the
interpreter's fast path for plain positional calls instead of packing
``*args, **kwargs``.  And the running totals are globals of the
namespace the wrappers are compiled in, the cheapest slots a Python
function can update.  Together they cut the paper report's overhead
from about 0.20 to 0.08-0.10 of its untraced time on the 2-core machine
described in ``baseline/machine.json``.

Nothing under ``src/`` is edited; the wrappers are installed on the
classes and modules at run time and removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import types
from collections.abc import Iterator
from dataclasses import dataclass


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``module.owner.attr`` (owner None: a function)."""

    layer: str
    module: str
    owner: str | None
    attr: str


#: Every wrapped call, keyed by the layer metric its spans feed.  Several
#: boundaries may feed one layer (the columnar brokers' receive and tick).
LAYERS: tuple[Boundary, ...] = (
    # Object pipeline (paper-report).
    Boundary("mobility.advance", "repro.mobility.node", "MobileNode", "advance"),
    Boundary("campus.resolve", "repro.campus.campus", "Campus", "region_at"),
    Boundary(
        "network.associate",
        "repro.network.association",
        "AssociationManager",
        "observe",
    ),
    Boundary(
        "core.classify", "repro.core.classifier", "MobilityClassifier", "observe"
    ),
    Boundary("core.place", "repro.core.cluster_manager", "ClusterManager", "place"),
    Boundary("core.filter", "repro.core.adf", "AdaptiveDistanceFilter", "process"),
    Boundary("core.recluster", "repro.core.adf", "AdaptiveDistanceFilter", "tick"),
    Boundary("broker.receive", "repro.broker.broker", "GridBroker", "receive_update"),
    Boundary("broker.estimate", "repro.broker.broker", "GridBroker", "tick"),
    # Columnar pipeline (city-1m).
    Boundary(
        "columnar.advance",
        "repro.core.columnar.mobility",
        "ColumnarMobilitySource",
        "advance",
    ),
    Boundary(
        "columnar.resolve", "repro.core.columnar.engine", "RegionResolver", "resolve"
    ),
    Boundary(
        "columnar.classify",
        "repro.core.columnar.classifier",
        "ColumnarClassifier",
        "observe",
    ),
    Boundary(
        "columnar.place",
        "repro.core.columnar.clustering",
        "ColumnarClusterer",
        "place_all",
    ),
    Boundary("columnar.filter", "repro.core.columnar.engine", None, "df_decide"),
    # The lane brokers have no public class; their receive/tick methods are
    # the estimate stage of ColumnarExperiment._step.
    Boundary(
        "columnar.estimate",
        "repro.core.columnar.engine",
        "_BrownBrokerState",
        "receive",
    ),
    Boundary(
        "columnar.estimate", "repro.core.columnar.engine", "_BrownBrokerState", "tick"
    ),
    Boundary(
        "columnar.estimate",
        "repro.core.columnar.engine",
        "_LastKnownBrokerState",
        "receive",
    ),
    # Serving path (serving-*).
    Boundary("serving.decode", "repro.serving.trace", None, "read_trace"),
    Boundary("serving.to_update", "repro.serving.trace", "TraceRecord", "to_update"),
    Boundary("serving.enqueue", "repro.serving.service", "IngestService", "submit"),
    Boundary("serving.gate", "repro.serving.store", "ShardedLocationStore", "apply"),
    Boundary("serving.sweep", "repro.serving.service", "IngestService", "tick"),
    Boundary(
        "durability.wal_append",
        "repro.serving.durability",
        "WriteAheadLog",
        "append_update",
    ),
    Boundary(
        "durability.wal_flush",
        "repro.serving.durability",
        "DurabilityManager",
        "flush_shard",
    ),
    Boundary(
        "durability.snapshot",
        "repro.serving.durability",
        "DurabilityManager",
        "maybe_snapshot",
    ),
    Boundary(
        "durability.recover",
        "repro.serving.service",
        "IngestService",
        "restart_shard",
    ),
)


#: A span wrapper; ``_t_covered`` sums the durations of the spans that
#: closed while this one was open, which are exactly its children.  Every
#: name it binds starts with ``_t_`` so none can shadow a parameter.
_SPAN = """\
def _t_span({params}):
    global _t_covered, _t_self_{slot}, _t_calls_{slot}
    _t_before = _t_covered
    _t_start = _t_clock()
    try:
        return _t_fn_{key}({args})
    finally:
        _t_duration = _t_clock() - _t_start
        _t_self_{slot} += _t_duration - (_t_covered - _t_before)
        _t_calls_{slot} += 1
        _t_covered = _t_before + _t_duration
"""


def _forwarding(fn: types.FunctionType, key: int) -> tuple[str, str, dict]:
    """*fn*'s parameter list, the argument list that passes each parameter
    on unchanged, and the default values the parameter list names.

    Only named parameters, positional-or-keyword and keyword-only, are
    supported; every wrapped boundary has only those.
    """
    kinds = inspect.Parameter
    params: list[str] = []
    args: list[str] = []
    defaults: dict[str, object] = {}
    for i, param in enumerate(inspect.signature(fn).parameters.values()):
        name = param.name
        if name.startswith("_t_") or param.kind not in (
            kinds.POSITIONAL_OR_KEYWORD,
            kinds.KEYWORD_ONLY,
        ):
            raise TypeError(f"{fn.__qualname__}: cannot forward parameter {param}")
        if param.kind is kinds.KEYWORD_ONLY and "*" not in params:
            params.append("*")
        if param.default is param.empty:
            params.append(name)
        else:
            defaults[f"_t_d{key}_{i}"] = param.default
            params.append(f"{name}=_t_d{key}_{i}")
        args.append(f"{name}={name}" if param.kind is kinds.KEYWORD_ONLY else name)
    return ", ".join(params), ", ".join(args), defaults


class Tracer:
    """Per-layer self time and call counts for the wrapped boundaries."""

    def __init__(self, boundaries: tuple[Boundary, ...] = LAYERS) -> None:
        self.boundaries = boundaries
        self.names = tuple(dict.fromkeys(b.layer for b in boundaries))
        self._slot = {name: i for i, name in enumerate(self.names)}
        # The namespace the wrappers are compiled in and keep their
        # running totals in.
        self._ns: dict[str, object] = {"_t_clock": time.perf_counter}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every total before a traced repetition."""
        self._ns["_t_covered"] = 0.0
        for i in range(len(self.names)):
            self._ns[f"_t_self_{i}"] = 0.0
            self._ns[f"_t_calls_{i}"] = 0

    def totals(self) -> dict[str, tuple[float, int]]:
        """``layer -> (self seconds, calls)`` since the last reset."""
        ns = self._ns
        return {
            name: (ns[f"_t_self_{i}"], ns[f"_t_calls_{i}"])
            for i, name in enumerate(self.names)
        }

    def _wrap(self, fn: types.FunctionType, slot: int, key: int):
        params, args, defaults = _forwarding(fn, key)
        ns = self._ns
        ns.update(defaults)
        ns[f"_t_fn_{key}"] = fn
        exec(_SPAN.format(params=params, args=args, slot=slot, key=key), ns)
        return functools.update_wrapper(ns.pop("_t_span"), fn)

    def install(self) -> None:
        """Replace every boundary with its span wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for key, boundary in enumerate(self.boundaries):
            owner: object = importlib.import_module(boundary.module)
            if boundary.owner is not None:
                owner = getattr(owner, boundary.owner)
            if boundary.attr not in vars(owner):
                raise AttributeError(
                    f"{boundary.module}.{boundary.owner}.{boundary.attr} is not "
                    "defined there; the layer table is out of date"
                )
            original = vars(owner)[boundary.attr]
            if not isinstance(original, types.FunctionType):
                raise TypeError(
                    f"{boundary.module}.{boundary.owner}.{boundary.attr} is a "
                    f"{type(original).__name__}, not a plain function"
                )
            self._saved.append((owner, boundary.attr, original))
            setattr(
                owner,
                boundary.attr,
                self._wrap(original, self._slot[boundary.layer], key),
            )

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install for the body of a ``with`` block, then uninstall."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
