"""LU trace record/replay: a compact, replayable log of an LU stream.

The serving subsystem decouples workload *generation* from workload
*serving*: :func:`record_columnar_trace` captures the LU stream one lane
of the columnar engine actually transmitted (post-filter, DTH-stamped)
straight into columns, with a :class:`ColumnarTraceRecorder`, and
:func:`write_trace` / :func:`read_trace` persist it as a file the load
generator replays at any rate.  :func:`read_trace` returns the rows as a
:class:`TraceBatch`, one column per field, which is what the serving
path consumes.

Format (``repro-lu-trace`` version 2), which :func:`write_trace` writes:

* line 1, the header: sorted-key, compact, ASCII JSON ending in
  ``\\n``, with ``format``, ``version`` (2), ``meta``, ``records`` (the
  row count), ``node_ids`` and ``region_ids`` (the id tables, each in
  order of first appearance in the rows);
* then ``records`` fixed 64-byte little-endian rows: the numeric block
  :data:`LU_NUMBERS` (``<d q d d d d d``: time, seq, x, y, vx, vy, dth,
  the same block each row of a WAL group carries), then the ``u4`` node code
  and the ``u4`` region code into the header's tables.

The rows are packed from a batch's columns and read back with one
``numpy.frombuffer``; nothing is formatted or parsed per row.  The bytes
depend only on the record sequence: the header is dumped with
``sort_keys=True`` and the tables are interned by first appearance, so
writing the same records twice (as a list, a batch, or a slice of a
wider batch) produces byte-identical files, which the serving
determinism gate (CI ``serving-smoke``) relies on.  Records are written
in capture order; the recorder captures in simulation order, so per
node both ``time`` and ``seq`` are non-decreasing, the trace invariant
the sharded store's duplicate detection leans on.  The file name's
extension is not significant: the header's ``version`` says what the
file is, and :func:`read_trace` refuses any version but 2.  Nothing
reads the retired version 1 (JSON lines); since a trace is a pure
function of seed and config, such a file is re-recorded instead.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.geometry import Vec2
from repro.network.messages import LocationUpdate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "LU_NUMBERS",
    "PACKED_TRACE_VERSION",
    "TRACE_FORMAT",
    "TraceBatch",
    "TraceError",
    "TraceRecord",
    "ColumnarTraceRecorder",
    "write_trace",
    "read_trace",
    "record_columnar_trace",
]

TRACE_FORMAT = "repro-lu-trace"
#: The packed-row version :func:`write_trace` writes and :func:`read_trace`
#: reads.
PACKED_TRACE_VERSION = 2

#: The numeric block of one LU, ``(field, dtype)`` in storage order: a
#: packed trace row and each row of a WAL group carry it.
LU_NUMBERS: tuple[tuple[str, str], ...] = (
    ("time", "<f8"),
    ("seq", "<i8"),
    ("x", "<f8"),
    ("y", "<f8"),
    ("vx", "<f8"),
    ("vy", "<f8"),
    ("dth", "<f8"),
)

#: One version-2 row: the numeric block, then the node and region codes
#: into the header's id tables (64 bytes, packed).
_PACKED_ROW = np.dtype([*LU_NUMBERS, ("node", "<u4"), ("region", "<u4")])

#: The float fields of a row, each of which must be finite.
_FLOATS = tuple(name for name, dtype in LU_NUMBERS if dtype == "<f8")

_T = TypeVar("_T")

#: Rows :meth:`TraceBatch.__iter__` converts at a time: enough to
#: amortise the column reads, few enough that one chunk's row tuples, not
#: the whole batch's, are alive at a time.
_CHUNK_ROWS = 4096


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
        """The record as a ``[time, seq, node_id, x, y, vx, vy, region_id,
        dth]`` list (the shape a WAL ``lu`` entry reads back as)."""
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
        region_id, dth]`` and already valid."""
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


class ColumnarTraceRecorder:
    """Captures one lane's LU stream from the *columnar* engine.

    Instances are :class:`~repro.core.columnar.engine.ColumnarExperiment`
    ``lu_observer`` callables: the engine invokes them once per lane per
    step with the transmitting row indices and the full-width state
    columns.  Only the configured *lane*'s stream is kept — recording the
    ADF lane yields the paper's reduced traffic, recording ``ideal`` the
    unfiltered firehose.  The recorder keeps each step's rows and
    gathered columns, and :attr:`records` joins them into one
    :class:`TraceBatch` whose id tables hold only the node and region ids
    the rows use — call :meth:`bind` with the experiment's ``node_ids``
    and ``resolver.region_ids`` before the run.

    Row ``i``'s LU at the ``k``-th step (from 0) gets ``seq = k * n + i``
    for ``n`` nodes: the harness's per-run numbering, in which every node
    takes one seq per step in node order.  Per node both ``time`` and
    ``seq`` increase, the trace invariant replay relies on.
    """

    def __init__(self, lane: str = "adf-1") -> None:
        self.lane = lane
        self._node_ids: Sequence[str] | None = None
        self._region_ids: Sequence[str] | None = None
        #: Per captured step, the rows' time, seq, indices, x, y, vx, vy,
        #: region codes and dth.
        self._steps: list[tuple[NDArray[Any], ...]] = []
        self._batch: TraceBatch | None = None

    def bind(self, node_ids: Sequence[str], region_ids: Sequence[str]) -> None:
        """Attach the id tables that turn row/code integers into strings."""
        self._node_ids = node_ids
        self._region_ids = region_ids

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
        idx = np.array(idx, dtype=np.int64)
        time = np.full(len(idx), float(now))
        seq = len(self._steps) * len(x) + idx
        self._steps.append(
            (time, seq, idx, x[idx], y[idx], vx[idx], vy[idx], codes[idx], dth[idx])
        )
        self._batch = None

    @property
    def records(self) -> TraceBatch:
        """Every captured row, in capture order, as one batch."""
        if self._batch is None:
            self._batch = self._join()
        return self._batch

    def _join(self) -> TraceBatch:
        if not self._steps or self._node_ids is None or self._region_ids is None:
            return TraceBatch.from_rows(())
        time, seq, idx, x, y, vx, vy, codes, dth = map(
            np.concatenate, zip(*self._steps)
        )
        node_ids, node = _first_seen(self._node_ids, idx)
        region_ids, region = _first_seen(self._region_ids, codes)
        return TraceBatch(
            time=time,
            seq=seq,
            node=node,
            x=x.astype(np.float64, copy=False),
            y=y.astype(np.float64, copy=False),
            vx=vx.astype(np.float64, copy=False),
            vy=vy.astype(np.float64, copy=False),
            region=region,
            dth=dth.astype(np.float64, copy=False),
            node_ids=node_ids,
            region_ids=region_ids,
        )


def _first_seen(
    ids: Sequence[str], codes: NDArray[Any]
) -> tuple[tuple[str, ...], NDArray[Any]]:
    """The entries of *ids* that *codes* use, in order of first use, and
    *codes* recoded into that table (only the used entries are read)."""
    used, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    return tuple(ids[i] for i in used[order].tolist()), rank[inverse]


def write_trace(
    records: Iterable[TraceRecord],
    path: str | Path,
    *,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write *records* (plus a header) as a version-2 trace file; returns
    the path.

    A :class:`TraceBatch` is packed straight from its columns; any other
    iterable goes through :meth:`TraceBatch.from_records`.  *meta* must
    be JSON-serialisable scalars/containers; it rides in the header for
    provenance (seed, lane, duration, node count).
    """
    batch = (
        records
        if isinstance(records, TraceBatch)
        else TraceBatch.from_records(records)
    )
    node_ids, node = _first_seen(batch.node_ids, batch.node)
    region_ids, region = _first_seen(batch.region_ids, batch.region)
    header = {
        "format": TRACE_FORMAT,
        "version": PACKED_TRACE_VERSION,
        "meta": dict(meta or {}),
        "records": len(batch),
        "node_ids": node_ids,
        "region_ids": region_ids,
    }
    rows = np.empty(len(batch), _PACKED_ROW)
    for name, _ in LU_NUMBERS:
        rows[name] = getattr(batch, name)
    rows["node"] = node
    rows["region"] = region
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("wb") as handle:
        handle.write(
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        )
        handle.write(b"\n")
        handle.write(rows.tobytes())
    return out


def read_trace(
    path: str | Path, *, allow_partial: bool = False
) -> tuple[dict[str, Any], TraceBatch]:
    """Load a trace file; returns ``(meta, records)``.

    The header (format, version 2, id tables), the declared record
    count and every row (finite numbers, ``dth >= 0``, codes inside the
    id tables) are validated, so a truncated or foreign file fails loudly
    instead of replaying garbage.  A bad *final* row is reported as a
    truncation (a crashed writer tears at most the last row); with
    ``allow_partial=True`` that torn tail is dropped and the valid prefix
    is returned instead — the header's declared record count is then
    allowed to exceed what survives.  Damage *before* the final row
    always raises: that is not a torn write.

    The records come back as a :class:`TraceBatch`: the body is read
    with one ``numpy.frombuffer`` and checked column by column (see
    :func:`_read_packed`).
    """
    source = Path(path)
    with source.open("rb") as handle:
        first = handle.readline()
        if not first:
            raise TraceError(f"{source}: empty trace file")
        try:
            header = json.loads(first.decode("utf-8"))
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise TraceError(f"{source}: unreadable trace header") from exc
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise TraceError(f"{source}: not a {TRACE_FORMAT} file")
        version = header.get("version")
        # 2.0 == 2, so the type is checked too: only the int 2 is read.
        if type(version) is not int or version != PACKED_TRACE_VERSION:
            raise TraceError(f"{source}: unsupported trace version {version!r}")
        if not first.endswith(b"\n"):
            raise TraceError(f"{source}: unreadable trace header")
        records = _read_packed(
            source, header, handle.read(), allow_partial=allow_partial
        )
    meta = header.get("meta")
    return (meta if isinstance(meta, dict) else {}), records


def _check_count(
    source: Path, declared: Any, count: int, allow_partial: bool
) -> None:
    """Refuse a *declared* record count that is not an int, or not *count*
    unless *allow_partial* accepts the missing tail of a torn write."""
    if type(declared) is not int:
        raise TraceError(f"{source}: trace header needs an int record count")
    if declared != count and not (allow_partial and declared > count):
        raise TraceError(
            f"{source}: header declares {declared} records, file has "
            f"{count} (truncated?)"
        )


def _read_packed(
    source: Path, header: dict[str, Any], body: bytes, *, allow_partial: bool
) -> TraceBatch:
    """The batch of a version-2 *body* under *header*.

    Every row is checked at once: finite numbers, ``dth >= 0``, and codes
    inside their tables, each at most one past every code before it (so
    each table is in order of first use).  The first row failing a check
    is bad; a bad last row, or a body that ends inside a row, is a torn
    tail, and anything else bad raises ``unreadable row`` with its
    record index.  Each table must be exactly the ids its rows use; when
    a torn tail is dropped, the table entries only the dropped rows used
    go with it.
    """
    node_ids = _id_table(source, header, "node_ids")
    region_ids = _id_table(source, header, "region_ids")
    count, torn = divmod(len(body), _PACKED_ROW.itemsize)
    rows = np.frombuffer(body, _PACKED_ROW, count)
    node = rows["node"].astype(np.int64)
    region = rows["region"].astype(np.int64)
    ok = (
        (rows["dth"] >= 0.0)
        & _in_first_seen_order(node, len(node_ids))
        & _in_first_seen_order(region, len(region_ids))
    )
    for name in _FLOATS:
        ok &= np.isfinite(rows[name])
    kept = count if ok.all() else int(np.argmin(ok))
    if kept < count - 1 or (kept < count and torn):
        raise TraceError(f"{source}: record {kept}: unreadable row")
    if (kept < count or torn) and not allow_partial:
        raise TraceError(
            f"{source}: record {kept}: truncated final row (torn write from a "
            f"crashed writer?) — pass allow_partial=True to recover the "
            f"{kept}-record valid prefix"
        )
    declared = header.get("records")
    _check_count(source, declared, kept, allow_partial)
    tables: list[tuple[str, ...]] = []
    for ids, codes in ((node_ids, node), (region_ids, region)):
        used = int(codes[:kept].max()) + 1 if kept else 0
        if used < len(ids) and declared == kept:
            raise TraceError(f"{source}: trace header lists ids no record uses")
        tables.append(ids[:used])
    rows = rows[:kept]
    return TraceBatch(
        **{
            name: rows[name].astype(np.dtype(dtype).newbyteorder("="))
            for name, dtype in LU_NUMBERS
        },
        node=node[:kept],
        region=region[:kept],
        node_ids=tables[0],
        region_ids=tables[1],
    )


def _id_table(source: Path, header: dict[str, Any], key: str) -> tuple[str, ...]:
    """The header's id table *key*: a list of distinct strings."""
    ids = header.get(key)
    if (
        not isinstance(ids, list)
        or not set(map(type, ids)) <= {str}
        or len(set(ids)) != len(ids)
    ):
        raise TraceError(f"{source}: trace header {key} must be distinct strings")
    return tuple(ids)


def _in_first_seen_order(codes: NDArray[Any], size: int) -> NDArray[Any]:
    """Per row: its code is below *size* and at most one past every code
    in the rows before it."""
    bound = np.zeros_like(codes)
    bound[1:] = np.maximum.accumulate(codes)[:-1] + 1
    return (codes < size) & (codes <= bound)


def record_columnar_trace(
    config: "ExperimentConfig",
    *,
    lane: str = "adf-1",
    path: str | Path | None = None,
    campus: Any = None,
    source: Any = None,
    kernel: Any = None,
    cluster_mode: str = "exact",
) -> tuple[dict[str, Any], TraceBatch]:
    """Run one experiment on the columnar engine and capture *lane*'s
    transmitted LU stream.

    Returns ``(meta, records)``; when *path* is given the trace is also
    written there.  With the default exact kernel the capture is byte for
    byte the stream the object harness transmits on that lane.  Pass a
    generated *campus* plus a :class:`ColumnarMobilitySource` *source* to
    record a big-city workload.  The capture is a pure function of
    seed/config/campus, so re-recording produces byte-identical traces.
    A config the engine does not support raises ``ValueError`` (see
    :func:`~repro.core.columnar.engine.unsupported_reason`).
    """
    from repro.core.columnar.engine import ColumnarExperiment
    from repro.core.columnar.kernels import EXACT_KERNEL

    if lane not in config.lane_names:
        raise ValueError(f"unknown lane {lane!r}; have {sorted(config.lane_names)}")
    recorder = ColumnarTraceRecorder(lane)
    experiment = ColumnarExperiment(
        config,
        campus=campus,
        source=source,
        kernel=kernel if kernel is not None else EXACT_KERNEL,
        cluster_mode=cluster_mode,
        lu_observer=recorder,
    )
    recorder.bind(experiment.node_ids, experiment.resolver.region_ids)
    experiment.run()
    meta: dict[str, Any] = {
        "lane": lane,
        "seed": config.seed,
        "duration": config.duration,
        "report_interval": config.report_interval,
        "node_count": len(experiment.node_ids),
        "cluster_mode": cluster_mode,
        "kernel": experiment.kernel.name,
    }
    if path is not None:
        write_trace(recorder.records, path, meta=meta)
    return meta, recorder.records
