"""Per-shard durability: write-ahead log + snapshots + compaction.

A :class:`~repro.serving.store.ShardedLocationStore` shard lives
entirely in memory — a crash loses its location DB, tracker states and
quarantine sets.  This module makes that state *reconstructible*: every
applied LU and every estimation sweep is appended to a per-shard
write-ahead log before the flush window ends, and periodic snapshots
dump the shard's columns and owned store gates
(:class:`~repro.serving.store.ShardImage`) so the log can be compacted.
Recovery is then

    snapshot image  +  WAL tail replay (entries past the snapshot LSN)

which reproduces the shard bit-exactly, because a shard is a
deterministic function of its applied-LU/tick sequence and
:meth:`~repro.serving.store.ColumnShard.load_image` restores the
snapshot point exactly.

WAL format (``repro-shard-wal`` version 3)
------------------------------------------

A flat sequence of length+checksum framed records::

    [u32 length (LE)] [u32 crc32(payload) (LE)] [payload bytes]

Frame 0 is the file header, UTF-8 JSON
``{"base_lsn": N, "format": "repro-shard-wal", "shard": i, "version": 3}``;
every further frame is a binary payload whose first byte is its tag:

* ``B`` — a group of *applied* LUs (post-dedup: the WAL records what
  the shard absorbed, so replay needs no gate logic), one group per
  :meth:`WriteAheadLog.append_update`: a ``u32`` row count, then per
  row a 64-byte block — :data:`~repro.serving.trace.LU_NUMBERS` and the
  ``u32`` byte lengths of its node and region ids — then the rows' node
  ids, then their region ids (UTF-8, ``surrogatepass``, so a lone
  surrogate a JSON trace can carry is logged too).
* ``T`` — one estimation sweep boundary: ``<d`` (now).

A batch is packed once, however many shards and replays log its rows:
its blocks as one array, its id tables encoded once each.  A group
append is then array gathers, one ``join`` and one CRC, with no Python
call per row.  :func:`read_wal` returns each entry in its diagnostic
list shape, ``["lu", time, seq, node_id, x, y, vx, vy, region_id,
dth]`` or ``["tick", now]``.  A version-1 (JSON entries) or version-2
(a frame per LU) WAL raises :class:`WalError`.

Entries carry implicit log sequence numbers, a group's rows consecutive
ones: the first entry has LSN ``base_lsn + 1``.  Compaction rewrites the
file with a new ``base_lsn`` (atomically, via a temp file and
``os.replace``), so LSNs are absolute across the shard's lifetime and a
snapshot taken at LSN ``k`` pairs with any WAL whose ``base_lsn <= k``.
The writer keeps the end offset and last LSN of every frame it flushed,
so compaction copies the surviving frames' bytes from there without
reading the rest back, re-packing a group the cut falls inside.

Torn tails are expected, not fatal: :func:`read_wal` scans frames and
stops at the first incomplete or checksum-failing one, or at the first
CRC-valid payload that does not decode, returning the longest valid
prefix plus how many trailing bytes it discarded — exactly the contract
a killed writer needs.  A torn group loses its whole flush, which was
never durable.  One walker, :func:`_frame_spans`, owns the framing
rules; it checks lengths and CRCs only, so recovery (which counts the
frames a snapshot covers from their heads) decodes no entry it does not
return.  One decoder, :func:`_decode_entries`, owns the entry layout.

Snapshot format (``repro-shard-snapshot`` version 2)
----------------------------------------------------

Two frames: a sorted-key JSON header (``format``, ``version``,
``shard``, ``lsn``, the shard's ``counters``, its trackers' ``kind`` and
``alpha``, the node ids of its rows and of its owned gates, and
``[name, dtype, length]`` per column), then every column's raw
little-endian bytes.  It is loaded with ``numpy.frombuffer`` (no
pickle); a truncated, corrupt or version-1 (JSON) file raises
:class:`WalError`.

Durability versus determinism: WAL/snapshot writes happen inside
simulator events and never read a wall clock (DET001); ``fsync`` is
policy (:class:`DurabilityConfig`), batched at flush-window boundaries.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, count, islice
from pathlib import Path
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from repro.serving.store import ShardImage
from repro.serving.trace import LU_NUMBERS, TraceBatch
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "WAL_FORMAT",
    "WAL_VERSION",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "WalError",
    "WalContents",
    "RecoveredShard",
    "WriteAheadLog",
    "DurabilityConfig",
    "DurabilityManager",
    "frame",
    "read_wal",
    "scan_frames",
    "load_snapshot",
    "write_snapshot",
]

WAL_FORMAT = "repro-shard-wal"
WAL_VERSION = 3
SNAPSHOT_FORMAT = "repro-shard-snapshot"
SNAPSHOT_VERSION = 2

#: Frame header: little-endian u32 payload length + u32 CRC32(payload).
_FRAME_HEADER = struct.Struct("<II")

#: Entry tags: the first byte of every entry payload.
_GROUP_TAG = ord("B")
_TICK_TAG = ord("T")

#: A group's head: the tag and its row count.
_GROUP_HEAD = struct.Struct("<BI")

#: One row of a group: its numbers and the byte lengths of its node and
#: region ids (packed, so 64 bytes); the rows' ids follow the blocks.
_GROUP_ROW = np.dtype([*LU_NUMBERS, ("node_len", "<u4"), ("region_len", "<u4")])

#: A ``tick`` entry: the tag and the sweep's time.
_TICK = struct.Struct("<Bd")

#: The row columns a group's fixed blocks carry.
_LU_COLUMNS = tuple(name for name, _ in LU_NUMBERS)


class WalError(ValueError):
    """A structurally invalid WAL or snapshot (beyond a torn tail)."""


def frame(payload: bytes) -> bytes:
    """Wrap *payload* in the length+checksum frame."""
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _fsync_directory(directory: Path) -> None:
    """Fsync *directory* so a rename inside it survives a power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame_spans(data: bytes) -> tuple[list[tuple[int, int]], int]:
    """Walk the longest prefix of *data* whose frames are whole and intact.

    Returns the ``(start, end)`` payload offsets of those frames and the
    byte offset the walk stopped at.  Only lengths and CRCs are checked;
    nothing is decoded.
    """
    spans: list[tuple[int, int]] = []
    view = memoryview(data)
    offset = 0
    header_size = _FRAME_HEADER.size
    total = len(data)
    while offset + header_size <= total:
        length, checksum = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + header_size
        end = start + length
        if end > total or zlib.crc32(view[start:end]) != checksum:
            break
        spans.append((start, end))
        offset = end
    return spans, offset


def _pack_rows(batch: TraceBatch) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """*batch* packed for groups: every row's fixed block, in one array of
    opaque 64-byte items (which gather as a plain copy), and the encoded
    node and region id tables, each id encoded once."""
    node_ids, region_ids = (
        np.array([text.encode("utf-8", "surrogatepass") for text in ids], object)
        for ids in (batch.node_ids, batch.region_ids)
    )
    fixed = np.empty(len(batch), _GROUP_ROW)
    for name in _LU_COLUMNS:
        fixed[name] = getattr(batch, name)
    for name, ids, codes in (
        ("node_len", node_ids, batch.node),
        ("region_len", region_ids, batch.region),
    ):
        fixed[name] = np.fromiter(map(len, ids), np.uint32, len(ids))[codes]
    return fixed.view((np.void, _GROUP_ROW.itemsize)), node_ids, region_ids


def _group_rows(data: bytes, start: int, stop: int, rows: int) -> NDArray[Any] | None:
    """The *rows* fixed blocks of the group payload ``data[start:stop]``,
    or None when they and the id bytes they count do not fill it exactly."""
    ids_at = start + _GROUP_HEAD.size + rows * _GROUP_ROW.itemsize
    if ids_at > stop:
        return None
    fixed = np.frombuffer(data, _GROUP_ROW, rows, start + _GROUP_HEAD.size)
    ids = sum(int(fixed[name].sum()) for name in ("node_len", "region_len"))
    return fixed if ids == stop - ids_at else None


def _drop_rows(payload: bytes, drop: int) -> bytes:
    """The group *payload*, which the writer framed, without its first
    *drop* rows."""
    rows = _GROUP_HEAD.unpack_from(payload)[1]
    fixed = np.frombuffer(payload, _GROUP_ROW, rows, _GROUP_HEAD.size)
    nodes_at = _GROUP_HEAD.size + fixed.nbytes
    regions_at = nodes_at + int(fixed["node_len"].sum())
    return b"".join(
        [
            _GROUP_HEAD.pack(_GROUP_TAG, rows - drop),
            fixed[drop:].tobytes(),
            payload[nodes_at + int(fixed["node_len"][:drop].sum()) : regions_at],
            payload[regions_at + int(fixed["region_len"][:drop].sum()) :],
        ]
    )


#: Decoded WAL entries in append order: runs of ``lu`` rows split at
#: ``tick`` times.
_Runs = list[TraceBatch | float]


def _entry_lists(runs: _Runs) -> list[list[Any]]:
    """Each entry of *runs* in its diagnostic list shape."""
    return [
        entry
        for run in runs
        for entry in (
            [["tick", run]]
            if isinstance(run, float)
            else (["lu", *record.to_row()] for record in run)
        )
    ]


def _decode_entries(
    data: bytes, spans: list[tuple[int, int]], end: int, skip: int = 0
) -> tuple[_Runs, int]:
    """Decode the entries of the frames at *spans*, in order, past the
    first *skip*.

    Stops at the first payload that does not decode — an unknown tag, a
    tick of the wrong size, a short group head, rows or id bytes that
    run past the payload or fall short of its end, or an id that is not
    UTF-8 — and returns the entries before that frame with the offset of
    its start, or *end*, the walk's stopping offset, when every payload
    decodes.  A frame wholly among the first *skip* entries is counted
    from its head, not decoded: the writer frames only well-formed
    entries, so it is trusted on its CRC.
    """
    runs: _Runs = []
    # The open run's groups: fixed blocks, node ids and region ids.
    groups: list[tuple[NDArray[Any], list[bytes], list[bytes]]] = []
    texts: dict[bytes, str] = {}
    for start, stop in spans:
        tag = data[start] if stop > start else None
        if tag == _TICK_TAG and stop - start == _TICK.size:
            entries = 1
        elif tag == _GROUP_TAG and stop - start >= _GROUP_HEAD.size:
            entries = _GROUP_HEAD.unpack_from(data, start)[1]
        else:
            end = start - _FRAME_HEADER.size
            break
        if skip and entries <= skip:
            skip -= entries
            continue
        if tag == _TICK_TAG:
            runs += [_run(groups, texts)] if groups else []
            runs.append(_TICK.unpack_from(data, start)[1])
            groups = []
            continue
        fixed = _group_rows(data, start, stop, entries)
        ids = None if fixed is None else _id_keys(data, start, fixed, texts)
        if fixed is None or ids is None:
            end = start - _FRAME_HEADER.size
            break
        # A group the snapshot covers in part loses its covered rows.
        groups.append((fixed[skip:], ids[0][skip:], ids[1][skip:]))
        skip = 0
    return runs + ([_run(groups, texts)] if groups else []), end


def _run(
    groups: list[tuple[NDArray[Any], list[bytes], list[bytes]]],
    texts: dict[bytes, str],
) -> TraceBatch:
    """The rows of consecutive *groups*, ids decoded through *texts*."""
    fixed = np.concatenate([rows for rows, _, _ in groups])
    node, node_ids = _codes([key for _, keys, _ in groups for key in keys], texts)
    region, region_ids = _codes([key for _, _, keys in groups for key in keys], texts)
    return TraceBatch(
        **{name: fixed[name].copy() for name in _LU_COLUMNS},
        node=node,
        region=region,
        node_ids=node_ids,
        region_ids=region_ids,
    )


def _id_keys(
    data: bytes, start: int, fixed: NDArray[Any], texts: dict[bytes, str]
) -> tuple[list[bytes], list[bytes]] | None:
    """The node and region id bytes of the group payload at *start*, whose
    fixed blocks are *fixed*, or None when one is not UTF-8.

    Each id not yet in *texts* is decoded into it.
    """
    at = start + _GROUP_HEAD.size + fixed.nbytes
    columns = []
    for name in ("node_len", "region_len"):
        ends = (at + np.cumsum(fixed[name], dtype=np.int64)).tolist()
        columns.append(list(map(data.__getitem__, map(slice, [at, *ends], ends))))
        at = ends[-1] if ends else at
    for key in dict.fromkeys(columns[0] + columns[1]):
        if key not in texts:
            try:
                texts[key] = key.decode("utf-8", "surrogatepass")
            except UnicodeDecodeError:
                return None
    return columns[0], columns[1]


def _codes(
    keys: list[bytes], texts: dict[bytes, str]
) -> tuple[NDArray[Any], tuple[str, ...]]:
    """Codes of the ids *keys* into a table of them in first-seen order,
    and that table, decoded through *texts*."""
    table = dict(zip(dict.fromkeys(keys), count()))
    codes = np.fromiter(map(table.__getitem__, keys), np.int64, len(keys))
    return codes, tuple(map(texts.__getitem__, table))


def scan_frames(data: bytes) -> tuple[list[Any], int]:
    """Decode the longest valid entry-frame prefix of *data*.

    Returns ``(entries, valid_length)`` where *entries* are the
    diagnostic lists of every intact frame and *valid_length* is the byte
    offset the scan stopped at — anything past it is a torn or corrupt
    tail.  A frame is intact only when its length fits, its CRC matches
    and its payload decodes as a WAL entry.
    """
    runs, valid = _decode_entries(data, *_frame_spans(data))
    return _entry_lists(runs), valid


@dataclass(frozen=True)
class WalContents:
    """A WAL file's decoded contents (longest valid prefix)."""

    shard: int
    base_lsn: int
    entries: list[Any]
    torn_bytes: int

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended entry would get."""
        return self.base_lsn + len(self.entries) + 1


def _read_wal(path: str | Path, past_lsn: int = 0) -> tuple[int, int, _Runs, int]:
    """Read a WAL file: its shard, its base LSN, its entries with LSNs
    past *past_lsn* (the frames of those before are counted, not
    decoded) and how many torn-tail bytes follow its valid prefix.

    Raises :class:`WalError` when the file has no intact, well-formed
    header frame — that is not a torn write, it is not a WAL — or when
    it is not a version-3 WAL.
    """
    data = Path(path).read_bytes()
    spans, end = _frame_spans(data)
    header = None
    if spans:
        start, stop = spans[0]
        try:
            header = json.loads(data[start:stop].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
    if header is None:
        raise WalError(f"{path}: no intact WAL header frame")
    if not isinstance(header, dict) or header.get("format") != WAL_FORMAT:
        raise WalError(f"{path}: not a {WAL_FORMAT} file")
    if header.get("version") != WAL_VERSION:
        raise WalError(
            f"{path}: unsupported WAL version {header.get('version')!r}"
        )
    base_lsn = int(header.get("base_lsn", 0))
    skip = max(past_lsn - base_lsn, 0)
    runs, valid = _decode_entries(data, spans[1:], end, skip)
    return int(header.get("shard", 0)), base_lsn, runs, len(data) - valid


def read_wal(path: str | Path) -> WalContents:
    """Read a WAL file from disk, tolerating a torn tail.

    Raises :class:`WalError` when the file has no intact, well-formed
    header frame — that is not a torn write, it is not a WAL.
    """
    shard, base_lsn, runs, torn_bytes = _read_wal(path)
    return WalContents(shard, base_lsn, _entry_lists(runs), torn_bytes)


class WriteAheadLog:
    """Append-only, length+checksum framed per-shard log.

    Appends are buffered in memory and written on :meth:`flush` — the
    service calls it once per flush window, so one window's records cost
    one ``write`` (and, with ``fsync=True``, one ``fsync``).  The crash
    model matches: anything appended but not yet flushed dies with the
    process, which is exactly the "queued-but-unflushed window" the
    recovery accounting charges to the crash.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        shard: int = 0,
        base_lsn: int = 0,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.shard = shard
        self.base_lsn = base_lsn
        self.fsync = fsync
        self.appended = 0
        self.flushes = 0
        self.fsyncs = 0
        #: Appended-but-unflushed frames, and the LSN each one ends at.
        self._buffer: list[bytes] = []
        self._pending: list[int] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("wb")
        header = frame(self._header_payload())
        self._fh.write(header)
        self._fh.flush()
        #: File offset where the header and each flushed frame end, and
        #: the LSN of the last entry up to there.
        self._ends = [len(header)]
        self._lsns = [base_lsn]
        if self.fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1

    def _header_payload(self) -> bytes:
        header = {
            "base_lsn": self.base_lsn,
            "format": WAL_FORMAT,
            "shard": self.shard,
            "version": WAL_VERSION,
        }
        return json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @property
    def next_lsn(self) -> int:
        """LSN the next appended entry will get (buffered ones included).

        Entry LSNs start at ``base_lsn + 1`` — the base names the last
        LSN already compacted *into* a snapshot, so "entries strictly
        past LSN k" is always ``entries[k - base_lsn:]``.
        """
        return (self._pending or self._lsns)[-1] + 1

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended entry (``base_lsn`` if none)."""
        return self.next_lsn - 1

    def append_update(self, batch: TraceBatch, rows: NDArray[Any]) -> int:
        """Append *batch*'s *rows* (applied LUs), in order, as one group;
        returns the last one's LSN.

        The group is gathered from the batch's packed rows.  A batch is
        packed once, with the batch, however many shards and replays log
        its rows.
        """
        if len(rows):
            fixed, node_ids, region_ids = batch.memo(_pack_rows)
            payload = b"".join(
                [
                    _GROUP_HEAD.pack(_GROUP_TAG, len(rows)),
                    fixed[rows].tobytes(),
                    *node_ids[batch.node[rows]].tolist(),
                    *region_ids[batch.region[rows]].tolist(),
                ]
            )
            self._append(payload, len(rows))
        return self.last_lsn

    def append_tick(self, now: float) -> int:
        """Append one estimation-sweep boundary; returns its LSN."""
        self._append(_TICK.pack(_TICK_TAG, now), 1)
        return self.last_lsn

    def _append(self, payload: bytes, entries: int) -> None:
        self._pending.append(self.next_lsn - 1 + entries)
        self._buffer.append(frame(payload))
        self.appended += entries

    def flush(self) -> int:
        """Write buffered frames; returns how many entries became durable."""
        if not self._buffer:
            return 0
        flushed = self._pending[-1] - self._lsns[-1]
        self._fh.write(b"".join(self._buffer))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
        self._ends += islice(
            accumulate(map(len, self._buffer), initial=self._ends[-1]), 1, None
        )
        self._lsns += self._pending
        self._buffer.clear()
        self._pending.clear()
        self.flushes += 1
        return flushed

    def drop_buffer(self) -> int:
        """Discard appended-but-unflushed entries (the crash's lost window)."""
        dropped = self.last_lsn - self._lsns[-1]
        self._buffer.clear()
        self._pending.clear()
        self.appended -= dropped
        return dropped

    def compact(self, upto_lsn: int) -> int:
        """Drop durable entries with LSN <= *upto_lsn*; returns how many.

        Rewrites the file as header(base_lsn=*upto_lsn*) + the surviving
        frames' bytes, read from the offsets this writer recorded, via a
        temp file and an atomic ``os.replace``, so a crash mid-compaction
        leaves either the old or the new file intact; with ``fsync`` the
        directory is fsynced after the rename.  A group the cut falls
        inside is re-packed with its rows past the cut.
        """
        self.flush()
        ends, lsns = self._ends, self._lsns
        upto_lsn = min(upto_lsn, lsns[-1])
        dropped = upto_lsn - self.base_lsn
        if dropped <= 0:
            return 0
        keep_from = bisect_right(lsns, upto_lsn) - 1
        with self.path.open("rb") as source:
            source.seek(ends[keep_from])
            survivors = source.read(ends[-1] - ends[keep_from])
        if lsns[keep_from] < upto_lsn:
            straddling = ends[keep_from + 1] - ends[keep_from]
            payload = survivors[_FRAME_HEADER.size : straddling]
            survivors = (
                frame(_drop_rows(payload, upto_lsn - lsns[keep_from]))
                + survivors[straddling:]
            )
        self._fh.close()
        self.base_lsn = upto_lsn
        header = frame(self._header_payload())
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("wb") as out:
            out.write(header)
            out.write(survivors)
            out.flush()
            if self.fsync:
                os.fsync(out.fileno())
                self.fsyncs += 1
        os.replace(tmp, self.path)
        if self.fsync:
            _fsync_directory(self.path.parent)
        # Every frame past the first survivor keeps its bytes, so it ends
        # as far from the file's end as it did.
        shift = len(header) + len(survivors) - ends[-1]
        self._ends = [len(header), *(end + shift for end in ends[keep_from + 1 :])]
        self._lsns = [upto_lsn, *lsns[keep_from + 1 :]]
        self._fh = self.path.open("ab")
        return dropped

    def close(self) -> None:
        """Flush and close the underlying file."""
        self.flush()
        self._fh.close()


# -- snapshots ----------------------------------------------------------------
def write_snapshot(
    path: str | Path,
    *,
    shard: int,
    lsn: int,
    image: ShardImage,
    fsync: bool = False,
) -> Path:
    """Atomically write one shard snapshot: a header frame, then the
    columns of *image* as one raw-bytes frame.

    *lsn* names the last WAL entry the snapshot includes — recovery
    replays strictly-later entries only.  With *fsync*, the temp file is
    fsynced before it replaces the old snapshot and the directory after,
    so a WAL compacted afterwards never outlives its snapshot.
    """
    columns = [
        (name, column.astype(column.dtype.newbyteorder("<"), copy=False))
        for name, column in image.columns.items()
    ]
    header = {
        "alpha": image.alpha,
        "columns": [[name, column.dtype.str, len(column)] for name, column in columns],
        "counters": image.counters,
        "format": SNAPSHOT_FORMAT,
        "gate_nodes": image.gate_ids,
        "kind": image.kind,
        "lsn": lsn,
        "nodes": image.node_ids,
        "shard": shard,
        "version": SNAPSHOT_VERSION,
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(out.suffix + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(frame(text.encode("utf-8")))
        handle.write(frame(b"".join(column.tobytes() for _, column in columns)))
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, out)
    if fsync:
        _fsync_directory(out.parent)
    return out


def load_snapshot(path: str | Path) -> tuple[int, ShardImage]:
    """Load and validate one shard snapshot; returns its LSN and image.

    Raises :class:`WalError` for a truncated, corrupt or version-1 file.
    """
    source = Path(path)
    data = source.read_bytes()
    spans, end = _frame_spans(data)
    if len(spans) != 2 or end != len(data):
        try:  # a version-1 snapshot was one JSON document
            document = json.loads(data)
        except ValueError:
            document = None
        if isinstance(document, dict) and document.get("format") == SNAPSHOT_FORMAT:
            raise WalError(
                f"{source}: unsupported snapshot version {document.get('version')!r}"
            )
        raise WalError(f"{source}: not an intact {SNAPSHOT_FORMAT} file")
    (start, stop), (offset, body_end) = spans
    header = json.loads(data[start:stop])
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise WalError(f"{source}: not a {SNAPSHOT_FORMAT} file")
    if header.get("version") != SNAPSHOT_VERSION:
        raise WalError(
            f"{source}: unsupported snapshot version {header.get('version')!r}"
        )
    columns: dict[str, NDArray[Any]] = {}
    for name, dtype, length in header["columns"]:
        columns[name] = np.frombuffer(data, np.dtype(dtype), length, offset)
        offset += columns[name].nbytes
    if offset != body_end:
        raise WalError(f"{source}: snapshot columns do not fill its body")
    image = ShardImage(
        node_ids=header["nodes"],
        columns=columns,
        counters=header["counters"],
        kind=header["kind"],
        alpha=header["alpha"],
        gate_ids=header["gate_nodes"],
    )
    return int(header["lsn"]), image


@dataclass(frozen=True)
class RecoveredShard:
    """Everything recovery needs to rebuild one shard from disk."""

    shard: int
    #: The snapshot's shard image, or None (cold start).
    image: ShardImage | None
    #: WAL tail past the snapshot LSN, in append order: runs of ``lu``
    #: rows split at ``tick`` times.
    tail: list[TraceBatch | float]
    snapshot_lsn: int
    torn_bytes: int
    #: How many WAL entries the tail holds (``lu`` rows and ticks).
    replayed: int


@dataclass(frozen=True)
class DurabilityConfig:
    """Durability tunables.

    ``snapshot_every`` snapshots a shard (and compacts its WAL) once
    that many LU entries accumulate past the last snapshot; ``0``
    disables periodic snapshots, leaving recovery to full-log replay.
    ``fsync`` batches an ``os.fsync`` per flush window, and fsyncs each
    snapshot (file, then directory) before its WAL is compacted — off by
    default because the deterministic replay harness cares about write
    *order*, not storage-power-loss semantics.
    """

    snapshot_every: int = 0
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )


@dataclass
class DurabilityStats:
    """Counters accumulated by a durability manager."""

    wal_appended: int = 0
    wal_flushes: int = 0
    snapshots_written: int = 0
    compacted_entries: int = 0
    recoveries: int = 0
    recovered_entries: int = 0
    dropped_unflushed: int = 0
    lsn_per_shard: list[int] = field(default_factory=list)


class DurabilityManager:
    """Owns the per-shard WALs and snapshots under one directory.

    Layout: ``shard-000.wal`` / ``shard-000.snap`` (index
    zero-padded to three digits).  Bind to a shard count once (the
    :class:`~repro.serving.service.IngestService` does this at
    construction), then the service appends each applied batch on
    :meth:`wal` and settles it through :meth:`note_appended`, logs sweeps
    with :meth:`log_tick`, calls :meth:`flush_shard` per flush, and
    :meth:`maybe_snapshot` at window boundaries.
    """

    def __init__(
        self,
        directory: str | Path,
        config: DurabilityConfig | None = None,
        *,
        telemetry: Any = None,
    ) -> None:
        self.directory = Path(directory)
        self.config = config or DurabilityConfig()
        self.stats = DurabilityStats()
        self._wals: list[WriteAheadLog] = []
        self._lus_since_snapshot: list[int] = []
        self._snapshot_lsn: list[int] = []
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_appended = tm.counter("serving.wal.appended")
        self._t_flushes = tm.counter("serving.wal.flushes")
        self._t_snapshots = tm.counter("serving.snapshot.written")
        self._t_recovered = tm.counter("serving.recovery.replayed")

    # -- layout ---------------------------------------------------------------
    def wal_path(self, index: int) -> Path:
        """The shard's WAL file path."""
        return self.directory / f"shard-{index:03d}.wal"

    def snapshot_path(self, index: int) -> Path:
        """The shard's snapshot file path."""
        return self.directory / f"shard-{index:03d}.snap"

    @property
    def shard_count(self) -> int:
        """How many shards are bound (0 before :meth:`bind`)."""
        return len(self._wals)

    def bind(self, shard_count: int) -> None:
        """Create fresh WALs for *shard_count* shards."""
        if self._wals:
            raise RuntimeError("DurabilityManager is already bound")
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._wals = [
            WriteAheadLog(
                self.wal_path(index),
                shard=index,
                fsync=self.config.fsync,
            )
            for index in range(shard_count)
        ]
        self._lus_since_snapshot = [0] * shard_count
        self._snapshot_lsn = [0] * shard_count
        self.stats.lsn_per_shard = [0] * shard_count

    def wal(self, index: int) -> WriteAheadLog:
        """The shard's live WAL."""
        return self._wals[index]

    # -- the write path -------------------------------------------------------
    def note_appended(self, index: int, count: int) -> None:
        """Account *count* LU appends made directly on :meth:`wal` (the
        service appends each applied batch there, then settles it here)."""
        self._lus_since_snapshot[index] += count
        self.stats.wal_appended += count
        if self._instrumented:
            self._t_appended.inc(count)

    def log_tick(self, index: int, now: float) -> int:
        """Append one estimation-sweep boundary to the shard's WAL."""
        lsn = self._wals[index].append_tick(now)
        self.stats.wal_appended += 1
        if self._instrumented:
            self._t_appended.inc()
        return lsn

    def flush_shard(self, index: int) -> int:
        """Make the shard's buffered entries durable."""
        wal = self._wals[index]
        flushed = wal.flush()
        if flushed:
            self.stats.wal_flushes += 1
            self.stats.lsn_per_shard[index] = wal.last_lsn
            if self._instrumented:
                self._t_flushes.inc()
        return flushed

    def maybe_snapshot(
        self, index: int, image_fn: Callable[[], ShardImage]
    ) -> bool:
        """Snapshot + compact the shard if its cadence is due.

        *image_fn* is called only when a snapshot is actually taken; it
        returns the shard's :class:`~repro.serving.store.ShardImage`.
        """
        every = self.config.snapshot_every
        if every <= 0 or self._lus_since_snapshot[index] < every:
            return False
        self.snapshot_now(index, image_fn())
        return True

    def snapshot_now(self, index: int, image: ShardImage) -> int:
        """Write the shard's snapshot at its current LSN, then compact."""
        wal = self._wals[index]
        wal.flush()
        lsn = wal.last_lsn
        write_snapshot(
            self.snapshot_path(index),
            shard=index,
            lsn=lsn,
            image=image,
            fsync=self.config.fsync,
        )
        self._snapshot_lsn[index] = lsn
        self._lus_since_snapshot[index] = 0
        self.stats.snapshots_written += 1
        if self._instrumented:
            self._t_snapshots.inc()
        self.stats.compacted_entries += wal.compact(lsn)
        return lsn

    # -- the crash / recovery path --------------------------------------------
    def on_crash(self, index: int) -> int:
        """Drop the shard's unflushed WAL window; returns entries lost."""
        dropped = self._wals[index].drop_buffer()
        self.stats.dropped_unflushed += dropped
        return dropped

    def recover_shard(self, index: int) -> RecoveredShard:
        """Read the shard's snapshot + WAL tail back from disk.

        Reads the *files*, not in-memory state — the recovery path is
        the same whether the shard died in-process (chaos lane) or the
        whole process restarted.  WAL frames the snapshot covers (left
        behind by a crash between snapshot and compaction) are
        CRC-checked but not decoded; the tail's ``lu`` frames are decoded
        into columns.
        """
        snapshot_lsn = 0
        image: ShardImage | None = None
        snap_path = self.snapshot_path(index)
        if snap_path.exists():
            snapshot_lsn, image = load_snapshot(snap_path)
        _, _, tail, torn_bytes = _read_wal(self.wal_path(index), snapshot_lsn)
        recovered = RecoveredShard(
            shard=index,
            image=image,
            tail=tail,
            snapshot_lsn=snapshot_lsn,
            torn_bytes=torn_bytes,
            replayed=sum(1 if isinstance(run, float) else len(run) for run in tail),
        )
        self.stats.recoveries += 1
        self.stats.recovered_entries += recovered.replayed
        if self._instrumented:
            self._t_recovered.inc(recovered.replayed)
        return recovered

    def close(self) -> None:
        """Flush and close every WAL."""
        for wal in self._wals:
            wal.close()
