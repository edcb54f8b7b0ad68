"""LU trace record/replay: a compact, replayable log of an LU stream.

The serving subsystem decouples workload *generation* from workload
*serving*: a :class:`TraceRecorder` captures the LU stream one harness
lane actually transmitted (post-filter, DTH-stamped) into a flat list of
:class:`TraceRecord` rows, and :func:`write_trace` / :func:`read_trace`
persist them as a line-oriented log the load generator replays at any
rate.  :func:`read_trace` returns the rows as a :class:`TraceBatch`, one
column per field, which is what the serving path consumes.

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
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat, starmap
from pathlib import Path
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceBatch",
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

_T = TypeVar("_T")

#: The range of a trace row's ``seq``: the serving store keeps seqs in an
#: int64 column.
_SEQ_MIN = -(2**63)
_SEQ_MAX = 2**63 - 1

#: Exact types a decoded JSON number has (``bool`` is an ``int`` subclass
#: but decodes from ``true``/``false``, so it is not in the set).
_NUMBER_TYPES = frozenset({int, float})

#: Trace lines :func:`read_trace` decodes with one ``json.loads``: enough
#: to amortise the call, few enough that the decoded rows of one chunk,
#: not of the whole file, are alive at a time.
_CHUNK_ROWS = 4096

#: The canonical row encoder: compact separators, the C encoder's
#: repr-based floats.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
        return cls(*_row_values(row))


def _row_values(row: Sequence[Any]) -> tuple[Any, ...]:
    """Validate one decoded row; returns its nine values, numbers as floats."""
    if len(row) != 9:
        raise TraceError(f"trace row needs 9 fields, got {len(row)}")
    time, seq, node_id, x, y, vx, vy, region_id, dth = row
    if not isinstance(node_id, str) or not isinstance(region_id, str):
        raise TraceError(f"trace row ids must be strings: {row!r}")
    if type(seq) is not int:
        raise TraceError(f"trace row seq must be an int: {row!r}")
    if not _SEQ_MIN <= seq <= _SEQ_MAX:
        raise TraceError(f"trace row seq must fit in 64 bits: {row!r}")
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


class TraceBatch(Sequence[TraceRecord]):
    """Trace rows held as columns, one array per field.

    Numbers live in float64 columns (``seq`` in int64); node and region
    ids are codes into the interned tables :attr:`node_ids` and
    :attr:`region_ids`, in order of first appearance.  The batch is a
    read-only ``Sequence[TraceRecord]``: indexing or iterating builds the
    records on demand, so the serving path, which reads the columns,
    never builds one.  Equality is element-wise against any sequence of
    records, so a batch compares equal to the list it was made from.
    """

    __slots__ = (
        "time",
        "seq",
        "node",
        "x",
        "y",
        "vx",
        "vy",
        "region",
        "dth",
        "node_ids",
        "region_ids",
        "_memo",
    )

    def __init__(
        self,
        *,
        time: NDArray[Any],
        seq: NDArray[Any],
        node: NDArray[Any],
        x: NDArray[Any],
        y: NDArray[Any],
        vx: NDArray[Any],
        vy: NDArray[Any],
        region: NDArray[Any],
        dth: NDArray[Any],
        node_ids: tuple[str, ...],
        region_ids: tuple[str, ...],
    ) -> None:
        self.time = time
        self.seq = seq
        self.node = node
        self.x = x
        self.y = y
        self.vx = vx
        self.vy = vy
        self.region = region
        self.dth = dth
        self.node_ids = node_ids
        self.region_ids = region_ids
        self._memo: dict[Callable[..., Any], Any] = {}

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "TraceBatch":
        """Columns of *rows*, each ``[time, seq, node_id, x, y, vx, vy,
        region_id, dth]`` and already valid (see :func:`_row_values`)."""
        time, seq, node, x, y, vx, vy, region, dth = zip(*rows) if rows else ((),) * 9
        node_table: dict[str, int] = {}
        region_table: dict[str, int] = {}
        return cls(
            time=np.array(time, dtype=np.float64),
            seq=np.array(seq, dtype=np.int64),
            node=_intern_into(node_table, node),
            x=np.array(x, dtype=np.float64),
            y=np.array(y, dtype=np.float64),
            vx=np.array(vx, dtype=np.float64),
            vy=np.array(vy, dtype=np.float64),
            region=_intern_into(region_table, region),
            dth=np.array(dth, dtype=np.float64),
            node_ids=tuple(node_table),
            region_ids=tuple(region_table),
        )

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceBatch":
        """The batch of *records*, in order."""
        return cls.from_rows([record.to_row() for record in records])

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index: int) -> TraceRecord:  # type: ignore[override]
        n = len(self.seq)
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError("trace batch index out of range")
        return TraceRecord(
            self.time[i].item(),
            self.seq[i].item(),
            self.node_ids[self.node[i]],
            self.x[i].item(),
            self.y[i].item(),
            self.vx[i].item(),
            self.vy[i].item(),
            self.region_ids[self.region[i]],
            self.dth[i].item(),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        for start in range(0, len(self), _CHUNK_ROWS):
            yield from starmap(TraceRecord, self._rows(start, start + _CHUNK_ROWS))

    def memo(self, build: Callable[["TraceBatch"], _T]) -> _T:
        """``build(self)``, computed on the first call with *build* and
        kept with the batch (which is read-only, so it stays valid)."""
        if build not in self._memo:
            self._memo[build] = build(self)
        value: _T = self._memo[build]
        return value

    def _rows(self, start: int, stop: int) -> list[tuple[Any, ...]]:
        """Rows *start* to *stop* as tuples of :meth:`TraceRecord.to_row`'s values."""
        node_ids = self.node_ids
        region_ids = self.region_ids
        return list(
            zip(
                self.time[start:stop].tolist(),
                self.seq[start:stop].tolist(),
                map(node_ids.__getitem__, self.node[start:stop].tolist()),
                self.x[start:stop].tolist(),
                self.y[start:stop].tolist(),
                self.vx[start:stop].tolist(),
                self.vy[start:stop].tolist(),
                map(region_ids.__getitem__, self.region[start:stop].tolist()),
                self.dth[start:stop].tolist(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )


def _intern_into(table: dict[str, int], values: Sequence[str]) -> NDArray[Any]:
    """Codes of *values* in *table*, adding unseen values in first-seen order."""
    for value in dict.fromkeys(values):
        if value not in table:
            table[value] = len(table)
    return np.fromiter(map(table.__getitem__, values), np.int64, len(values))


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
) -> tuple[dict[str, Any], TraceBatch]:
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

    The records come back as a :class:`TraceBatch`.  The body is decoded
    by one ``json.loads`` per :data:`_CHUNK_ROWS` lines and validated
    column by column; only when that fails are the lines decoded one by
    one, to name the first bad one.
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
    records = _decode_body(body)
    if records is None:
        records = TraceBatch.from_rows(
            _scan_body(source, body, allow_partial=allow_partial)
        )
    declared = header.get("records")
    if isinstance(declared, int) and declared != len(records):
        if not (allow_partial and declared > len(records)):
            raise TraceError(
                f"{source}: header declares {declared} records, file has "
                f"{len(records)} (truncated?)"
            )
    meta = header.get("meta")
    return (meta if isinstance(meta, dict) else {}), records


def _decode_body(lines: list[str]) -> TraceBatch | None:
    """The batch of the trace rows on *lines*, or None if any line is bad.

    The non-blank lines are decoded :data:`_CHUNK_ROWS` at a time, each
    chunk joined into one JSON array with ``","`` and decoded by one
    ``json.loads``.  That yields exactly the per-line rows when every line
    starts with ``[`` and ends with ``]`` (before its newline), the array
    has one element per line and every element is a flat row: a JSON
    string cannot hold the raw newline ending each line, so no string
    spans two lines; each line then opens and closes whole rows, and with
    as many rows as lines each line holds exactly one.  The columns are
    then checked as :func:`_row_values` checks each row.  None sends the
    caller to the per-line scan, which finds and reports the first bad
    line.
    """
    texts = list(filter(str.strip, lines))
    count = len(texts)
    if "".join(map(operator.itemgetter(0), texts)).count("[") != count or not all(
        map(str.endswith, texts, repeat(("]\n", "]")))
    ):
        return None
    node_table: dict[str, int] = {}
    region_table: dict[str, int] = {}
    chunks = []
    for start in range(0, count, _CHUNK_ROWS):
        chunk = _decode_chunk(
            texts[start : start + _CHUNK_ROWS], node_table, region_table
        )
        if chunk is None:
            return None
        chunks.append(chunk)
    if not chunks:
        return TraceBatch.from_rows(())
    seq, node, region, numbers = (
        np.concatenate(part, axis=-1) for part in zip(*chunks)
    )
    time, x, y, vx, vy, dth = numbers
    return TraceBatch(
        time=time,
        seq=seq,
        node=node,
        x=x,
        y=y,
        vx=vx,
        vy=vy,
        region=region,
        dth=dth,
        node_ids=tuple(node_table),
        region_ids=tuple(region_table),
    )


def _decode_chunk(
    texts: list[str], node_table: dict[str, int], region_table: dict[str, int]
) -> tuple[NDArray[Any], ...] | None:
    """Seq, node-code and region-code columns and the ``(6, n)`` number
    rows of the rows on *texts* (see :func:`_decode_body`), or None."""
    try:
        rows = json.loads("[" + ",".join(texts) + "]")
    except json.JSONDecodeError:
        return None
    if (
        len(rows) != len(texts)
        or set(map(type, rows)) != {list}
        or set(map(len, rows)) != {9}
    ):
        return None
    time, seq, node, x, y, vx, vy, region, dth = zip(*rows)
    del rows
    floats = (time, x, y, vx, vy, dth)
    if (
        set(map(type, seq)) != {int}
        or set(map(type, node)) != {str}
        or set(map(type, region)) != {str}
        or not all(_NUMBER_TYPES.issuperset(map(type, col)) for col in floats)
    ):
        return None
    try:  # an int too large for float64 or int64 raises OverflowError
        numbers = np.array(floats, dtype=np.float64)
        seqs = np.array(seq, dtype=np.int64)
    except OverflowError:
        return None
    # One reduction over every number: NaN and ±inf (the NaN/Infinity
    # literals json accepts, or an overflowing exponent) are not finite.
    if not np.isfinite(numbers).all() or not (numbers[5] >= 0.0).all():
        return None
    return (
        seqs,
        _intern_into(node_table, node),
        _intern_into(region_table, region),
        numbers,
    )


def _scan_body(
    source: Path, lines: list[str], *, allow_partial: bool
) -> list[tuple[Any, ...]]:
    """Decode and validate *lines* one by one; returns the valid rows.

    Raises :class:`TraceError` naming the first bad line, unless it is
    the final line and *allow_partial* drops it as a torn tail.
    """
    rows: list[tuple[Any, ...]] = []
    last_lineno = 1 + len(lines)
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, list):
                raise TraceError(f"{source}:{lineno}: row is not an array")
            rows.append(_row_values(row))
        except (json.JSONDecodeError, TraceError) as exc:
            if lineno == last_lineno:
                if allow_partial:
                    break
                raise TraceError(
                    f"{source}:{lineno}: truncated final row (torn write "
                    f"from a crashed writer?) — pass allow_partial=True to "
                    f"recover the {len(rows)}-record valid prefix"
                ) from exc
            raise TraceError(f"{source}:{lineno}: unreadable row") from exc
    return rows


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
