"""Helpers that drive the serving store and WAL one LU at a time."""

import numpy as np

from repro.serving import IngestOutcome, TraceBatch, TraceRecord


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
