"""LU trace record/replay: a compact, replayable log of an LU stream.

The serving subsystem decouples workload *generation* from workload
*serving*: a :class:`TraceRecorder` captures the LU stream one harness
lane actually transmitted (post-filter, DTH-stamped) into a flat list of
:class:`TraceRecord` rows, and :func:`write_trace` / :func:`read_trace`
persist them as a line-oriented log the load generator replays at any
rate.

Format (``repro-lu-trace`` version 1) — one JSON document per line:

* line 1, the header: ``{"format": "repro-lu-trace", "meta": {...},
  "version": 1}`` with sorted keys and compact separators;
* every further line, one record as a JSON array
  ``[time, seq, node_id, x, y, vx, vy, region_id, dth]``.

Arrays carry no key order, floats round-trip exactly through Python's
``json`` (repr-based shortest-float encoding), and the header is dumped
with ``sort_keys=True`` — so writing the same records twice produces
byte-identical files, which the serving determinism gate (CI
``serving-smoke``) relies on.  Records are written in capture order;
the recorder captures in simulation order, so per node both ``time``
and ``seq`` are non-decreasing — the trace invariant the sharded
store's duplicate detection leans on.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceError",
    "TraceRecord",
    "TraceRecorder",
    "ColumnarTraceRecorder",
    "write_trace",
    "read_trace",
    "record_trace",
    "record_columnar_trace",
]

TRACE_FORMAT = "repro-lu-trace"
TRACE_VERSION = 1

_INF = math.inf

#: Exact types a decoded JSON number has (``bool`` is an ``int`` subclass
#: but decodes from ``true``/``false``, so it is not in the set).
_NUMBER_TYPES = frozenset({int, float})

#: The canonical row encoder: compact separators, the C encoder's
#: repr-based floats.  Encoding a list of rows with it yields the rows'
#: own encodings joined by commas inside one pair of brackets.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Rows validated between two canonical-encoding checks in :func:`read_trace`.
_CHUNK_ROWS = 1024

#: The C scanner ``json.loads`` runs.  ``JSONDecoder`` builds it per
#: instance, as an attribute its type stubs leave out (hence ``getattr``).
#: Called directly, it skips two Python frames per line.
_scan_once: Callable[[str, int], tuple[Any, int]] = getattr(
    json.JSONDecoder(), "scan_once"
)

#: JSON insignificant whitespace, as ``json.loads`` skips it.
_skip_ws = re.compile(r"[ \t\n\r]*").match


class TraceError(ValueError):
    """A malformed trace file (bad header, truncated or mistyped row)."""


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One captured LU, flattened to plain scalars.

    ``seq`` is the per-run sequence number the harness stamped on the
    LU; within one node it increases with ``time``, which is what lets
    the serving store treat a replayed ``seq`` at-or-below the last
    applied one as a retransmit/reorder rather than new information.
    """

    time: float
    seq: int
    node_id: str
    x: float
    y: float
    vx: float
    vy: float
    region_id: str
    dth: float
    #: Canonical compact-JSON encoding of :meth:`to_row`, attached when the
    #: record was parsed from a file.  Rides into
    #: :attr:`~repro.network.messages.LocationUpdate.wire` so the serving
    #: WAL can log the bytes as received instead of re-serializing every
    #: LU.  Excluded from equality: parsed records still compare equal to
    #: freshly captured ones.
    encoded: bytes | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_update(cls, update: LocationUpdate) -> "TraceRecord":
        """Flatten a transmitted LU into a trace row."""
        return cls(
            time=update.timestamp,
            seq=update.seq,
            node_id=update.node_id,
            x=update.position.x,
            y=update.position.y,
            vx=update.velocity.x,
            vy=update.velocity.y,
            region_id=update.region_id,
            dth=update.dth,
        )

    def to_update(self) -> LocationUpdate:
        """Rebuild the LU this row captured (bit-identical fields)."""
        return LocationUpdate(
            sender=self.node_id,
            timestamp=self.time,
            seq=self.seq,
            node_id=self.node_id,
            position=Vec2(self.x, self.y),
            velocity=Vec2(self.vx, self.vy),
            region_id=self.region_id,
            dth=self.dth,
            wire=self.encoded,
        )

    def to_row(self) -> list[Any]:
        """The JSON-array row this record serialises to."""
        return [
            self.time,
            self.seq,
            self.node_id,
            self.x,
            self.y,
            self.vx,
            self.vy,
            self.region_id,
            self.dth,
        ]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "TraceRecord":
        """Parse one trace line's decoded JSON array (strict arity and types)."""
        values = _row_values(row)
        return cls(*values, encoded=_encode_row(values))


def _row_values(row: Sequence[Any]) -> tuple[Any, ...]:
    """Validate one decoded row; returns its nine values, numbers as floats."""
    if len(row) != 9:
        raise TraceError(f"trace row needs 9 fields, got {len(row)}")
    time, seq, node_id, x, y, vx, vy, region_id, dth = row
    if not isinstance(node_id, str) or not isinstance(region_id, str):
        raise TraceError(f"trace row ids must be strings: {row!r}")
    if type(seq) is not int:
        raise TraceError(f"trace row seq must be an int: {row!r}")
    if not (
        type(time) in _NUMBER_TYPES
        and type(x) in _NUMBER_TYPES
        and type(y) in _NUMBER_TYPES
        and type(vx) in _NUMBER_TYPES
        and type(vy) in _NUMBER_TYPES
        and type(dth) in _NUMBER_TYPES
    ):
        raise TraceError(f"trace row needs finite numbers and dth >= 0: {row!r}")
    time = float(time)
    x = float(x)
    y = float(y)
    vx = float(vx)
    vy = float(vy)
    dth = float(dth)
    # Chained comparisons instead of math.isfinite calls: NaN fails
    # every one of them, so this rejects NaN, ±inf and a negative dth.
    if not (
        -_INF < time < _INF
        and -_INF < x < _INF
        and -_INF < y < _INF
        and -_INF < vx < _INF
        and -_INF < vy < _INF
        and 0.0 <= dth < _INF
    ):
        raise TraceError(f"trace row needs finite numbers and dth >= 0: {row!r}")
    return (time, seq, node_id, x, y, vx, vy, region_id, dth)


def _encode_row(values: tuple[Any, ...]) -> bytes:
    """The canonical bytes :func:`write_trace` writes for *values*."""
    return _ROW_ENCODER.encode(values).encode("utf-8")


class TraceRecorder:
    """Captures one lane's transmitted LU stream from the harness.

    Instances are :class:`~repro.experiments.harness.MobileGridExperiment`
    ``lu_observer`` callables: the harness invokes them as
    ``observer(lane_name, update)`` for every LU that survived the lane's
    filter.  Only the configured *lane*'s stream is kept — recording the
    ADF lane yields the paper's reduced traffic, recording ``ideal`` the
    unfiltered firehose.
    """

    def __init__(self, lane: str = "adf-1") -> None:
        self.lane = lane
        self.records: list[TraceRecord] = []

    def __call__(self, lane_name: str, update: LocationUpdate) -> None:
        if lane_name == self.lane:
            self.records.append(TraceRecord.from_update(update))


class ColumnarTraceRecorder:
    """Captures one lane's LU stream from the *columnar* engine.

    Instances are :class:`~repro.core.columnar.engine.ColumnarExperiment`
    ``lu_observer`` callables: the engine invokes them once per lane per
    step with the transmitting row indices and the full-width state
    columns.  The recorder gathers the transmitted rows into
    :class:`TraceRecord` objects, mapping row numbers and region codes
    back to the string ids a trace carries — call :meth:`bind` with the
    experiment's ``node_ids`` and ``resolver.region_ids`` before the run.

    The columnar engine has no per-LU sequence stamps, so the recorder
    synthesises ``seq`` from a single per-run counter advanced in
    capture order (steps advance time, rows within a step are visited in
    ascending index order) — per node both ``time`` and ``seq`` are
    non-decreasing, the trace invariant replay relies on.
    """

    def __init__(self, lane: str = "adf-1") -> None:
        self.lane = lane
        self.records: list[TraceRecord] = []
        self._node_ids: list[str] | None = None
        self._region_ids: list[str] | None = None
        self._seq = 0

    def bind(self, node_ids: Sequence[str], region_ids: Sequence[str]) -> None:
        """Attach the id tables that turn row/code integers into strings."""
        self._node_ids = list(node_ids)
        self._region_ids = list(region_ids)

    def __call__(
        self,
        lane_name: str,
        now: float,
        idx: Any,
        x: Any,
        y: Any,
        vx: Any,
        vy: Any,
        codes: Any,
        dth: Any,
    ) -> None:
        if lane_name != self.lane:
            return
        if self._node_ids is None or self._region_ids is None:
            raise TraceError(
                "ColumnarTraceRecorder is unbound — call bind(node_ids, "
                "region_ids) before running the experiment"
            )
        node_ids = self._node_ids
        region_ids = self._region_ids
        records = self.records
        seq = self._seq
        time = float(now)
        for i, xi, yi, vxi, vyi, code, dth_i in zip(
            idx.tolist(),
            x[idx].tolist(),
            y[idx].tolist(),
            vx[idx].tolist(),
            vy[idx].tolist(),
            codes[idx].tolist(),
            dth[idx].tolist(),
        ):
            seq += 1
            records.append(
                TraceRecord(
                    time=time,
                    seq=seq,
                    node_id=node_ids[i],
                    x=xi,
                    y=yi,
                    vx=vxi,
                    vy=vyi,
                    region_id=region_ids[code],
                    dth=dth_i,
                )
            )
        self._seq = seq


def write_trace(
    records: Iterable[TraceRecord],
    path: str | Path,
    *,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write *records* (plus a header) as a trace file; returns the path.

    *meta* must be JSON-serialisable scalars/containers; it rides in the
    header for provenance (seed, lane, duration, node count).
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = list(records)
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "meta": dict(meta or {}),
        "records": len(rows),
    }
    with out.open("w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(header, sort_keys=True, separators=(",", ":"))
        )
        handle.write("\n")
        for record in rows:
            handle.write(_ROW_ENCODER.encode(record.to_row()))
            handle.write("\n")
    return out


def read_trace(
    path: str | Path, *, allow_partial: bool = False
) -> tuple[dict[str, Any], list[TraceRecord]]:
    """Load a trace file; returns ``(meta, records)``.

    Validates the header (format/version), the declared record count,
    and every row's shape, so a truncated or foreign file fails loudly
    instead of replaying garbage.  A row that fails to parse on the
    *final* line is reported as a truncation (a crashed writer tears at
    most the last line); with ``allow_partial=True`` that torn tail is
    dropped and the valid prefix is returned instead — the header's
    declared record count is then allowed to exceed what survives.
    Corruption *before* the final line always raises: that is damage,
    not a torn write.
    """
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise TraceError(f"{source}: empty trace file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{source}: unreadable trace header") from exc
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise TraceError(f"{source}: not a {TRACE_FORMAT} file")
        if header.get("version") != TRACE_VERSION:
            raise TraceError(
                f"{source}: unsupported trace version {header.get('version')!r}"
            )
        body = handle.readlines()
    records: list[TraceRecord] = []
    # Validated rows wait here, with their line text, until a chunk is
    # full; only the chunk's rows are ever alive next to the records.
    # They are tuples of scalars, which the garbage collector stops
    # tracking, so waiting rows do not bring collections forward.
    pending: list[tuple[Any, ...]] = []
    texts: list[str] = []
    last_lineno = 1 + len(body)
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        try:
            row = _decode_line(line)
            if not isinstance(row, list):
                raise TraceError(f"{source}:{lineno}: row is not an array")
            values = _row_values(row)
        except (json.JSONDecodeError, TraceError) as exc:
            if lineno == last_lineno:
                if allow_partial:
                    break
                raise TraceError(
                    f"{source}:{lineno}: truncated final row (torn write "
                    f"from a crashed writer?) — pass allow_partial=True to "
                    f"recover the {len(records) + len(pending)}-record valid "
                    f"prefix"
                ) from exc
            raise TraceError(f"{source}:{lineno}: unreadable row") from exc
        pending.append(values)
        texts.append(line[:-1] if line[-1] == "\n" else line)
        if len(pending) == _CHUNK_ROWS:
            _append_chunk(records, pending, texts)
            pending = []
            texts = []
    _append_chunk(records, pending, texts)
    declared = header.get("records")
    if isinstance(declared, int) and declared != len(records):
        if not (allow_partial and declared > len(records)):
            raise TraceError(
                f"{source}: header declares {declared} records, file has "
                f"{len(records)} (truncated?)"
            )
    meta = header.get("meta")
    return (meta if isinstance(meta, dict) else {}), records


def _decode_line(line: str) -> Any:
    """``json.loads(line)``: one JSON value, only whitespace around it."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
        )
    try:
        value, end = _scan_once(line, _skip_ws(line, 0).end())
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    end = _skip_ws(line, end).end()
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return value


def _append_chunk(
    records: list[TraceRecord], rows: list[tuple[Any, ...]], texts: list[str]
) -> None:
    """Build the records of validated *rows* read from lines *texts*.

    When the rows re-encode to exactly their lines, each line's own bytes
    are its canonical encoding; otherwise every row is encoded on its own.
    """
    if _ROW_ENCODER.encode(rows) == "[" + ",".join(texts) + "]":
        records.extend(
            TraceRecord(*values, encoded=text.encode("utf-8"))
            for values, text in zip(rows, texts)
        )
    else:
        records.extend(
            TraceRecord(*values, encoded=_encode_row(values)) for values in rows
        )


def record_trace(
    config: "ExperimentConfig",
    *,
    lane: str = "adf-1",
    path: str | Path | None = None,
) -> tuple[dict[str, Any], list[TraceRecord]]:
    """Run one experiment and capture *lane*'s transmitted LU stream.

    Returns ``(meta, records)``; when *path* is given the trace is also
    written there.  The capture is a pure function of the experiment
    seed/config, so re-recording produces byte-identical traces.
    """
    from repro.experiments.harness import MobileGridExperiment

    recorder = TraceRecorder(lane)
    experiment = MobileGridExperiment(config, lu_observer=recorder)
    experiment.lane(lane)  # fail fast on an unknown lane name
    experiment.run()
    meta: dict[str, Any] = {
        "lane": lane,
        "seed": config.seed,
        "duration": config.duration,
        "report_interval": config.report_interval,
        "node_count": len(experiment.nodes),
    }
    if path is not None:
        write_trace(recorder.records, path, meta=meta)
    return meta, recorder.records


def record_columnar_trace(
    config: "ExperimentConfig",
    *,
    lane: str = "adf-1",
    path: str | Path | None = None,
    campus: Any = None,
    source: Any = None,
    kernel: Any = None,
    cluster_mode: str = "exact",
) -> tuple[dict[str, Any], list[TraceRecord]]:
    """Record one lane's LU stream through the *columnar* engine.

    The array-speed twin of :func:`record_trace`, for fleets the object
    harness cannot reach (the 1M-node synthetic-city traces) — pass a
    generated *campus* plus a :class:`ColumnarMobilitySource` *source*
    to record a big-city workload.  Returns ``(meta, records)`` and,
    when *path* is given, also writes the trace file.  Like the object
    recorder, the capture is a pure function of seed/config/campus, so
    re-recording produces byte-identical traces.
    """
    from repro.core.columnar.engine import ColumnarExperiment
    from repro.core.columnar.kernels import EXACT_KERNEL

    recorder = ColumnarTraceRecorder(lane)
    experiment = ColumnarExperiment(
        config,
        campus=campus,
        source=source,
        kernel=kernel if kernel is not None else EXACT_KERNEL,
        cluster_mode=cluster_mode,
        lu_observer=recorder,
    )
    if lane not in {ln.name for ln in experiment.lanes}:
        raise ValueError(
            f"unknown lane {lane!r}; have "
            f"{sorted(ln.name for ln in experiment.lanes)}"
        )
    recorder.bind(experiment.node_ids, experiment.resolver.region_ids)
    experiment.run()
    meta: dict[str, Any] = {
        "lane": lane,
        "seed": config.seed,
        "duration": config.duration,
        "report_interval": config.report_interval,
        "node_count": len(experiment.node_ids),
        "engine": "columnar",
        "cluster_mode": cluster_mode,
    }
    if path is not None:
        write_trace(recorder.records, path, meta=meta)
    return meta, recorder.records
