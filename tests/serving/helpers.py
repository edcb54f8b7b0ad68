"""Helpers that drive the serving store and WAL one LU at a time, and
that edit trace files row by row."""

from pathlib import Path

import numpy as np

from repro.serving import IngestOutcome, TraceBatch, TraceRecord
from repro.serving.trace import _PACKED_ROW


def rows_of(*updates):
    """A batch of *updates* and its row indices, as the WAL appends them."""
    batch = TraceBatch.from_records(TraceRecord.from_update(u) for u in updates)
    return batch, np.arange(len(updates))


def apply_one(store, update):
    """Ingest one LU as a one-row batch; returns what the store did."""
    return IngestOutcome(int(store.apply(*rows_of(update))[0]))


def log_one(manager, index, update):
    """Append one applied LU to shard *index*'s WAL, as the service does."""
    manager.wal(index).append_update(*rows_of(update))
    manager.note_appended(index, 1)


def split_trace(path):
    """The header line and the rows of the trace at *path*, as bytes:
    each row is a 64-byte slice of the body (the last one shorter if the
    body is torn)."""
    head, _, body = Path(path).read_bytes().partition(b"\n")
    width = _PACKED_ROW.itemsize
    return head + b"\n", [body[i : i + width] for i in range(0, len(body), width)]


def join_trace(path, head, rows):
    """Write *head* and *rows* (as :func:`split_trace` returns them) to *path*."""
    Path(path).write_bytes(head + b"".join(rows))


def packed_row(*, time=1.0, seq=1, node=0, x=0.0, y=0.0, vx=0.0, vy=0.0,
               region=0, dth=0.0):
    """One version-2 row's bytes; *node* and *region* are table codes."""
    row = np.zeros(1, _PACKED_ROW)
    for name, value in dict(time=time, seq=seq, node=node, x=x, y=y, vx=vx,
                            vy=vy, region=region, dth=dth).items():
        row[name] = value
    return row.tobytes()
