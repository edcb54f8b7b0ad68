"""Tests for the region-sharded location store."""

import numpy as np
import pytest

from repro.broker.broker import BrokerConfig, GridBroker
from repro.broker.location_db import RecordSource
from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import (
    IngestOutcome,
    ShardedLocationStore,
    TraceBatch,
    TraceRecord,
    shard_for,
)

from tests.serving.helpers import apply_one


def lu(node="n1", t=0.0, seq=0, x=0.0, region="road-1", vx=1.0):
    return LocationUpdate(
        sender=node,
        timestamp=t,
        seq=seq,
        node_id=node,
        position=Vec2(x, 0.0),
        velocity=Vec2(vx, 0.0),
        region_id=region,
        dth=4.0,
    )


class TestSharding:
    def test_shard_for_in_range_and_stable(self):
        for region in ("road-1", "bldg-2", "", "λ-region"):
            index = shard_for(region, 4)
            assert 0 <= index < 4
            assert shard_for(region, 4) == index  # pure function

    def test_known_assignment(self):
        # CRC32 is specified byte math, so the assignment is a constant —
        # across processes, platforms, and PYTHONHASHSEED values.
        import zlib

        assert shard_for("road-1", 8) == zlib.crc32(b"road-1") % 8

    def test_records_land_in_region_shard(self):
        store = ShardedLocationStore(4)
        apply_one(store, lu(region="road-1"))
        index = shard_for("road-1", 4)
        assert store.shard(index).latest("n1") is not None
        assert store.latest("n1") == store.shard(index).latest("n1")
        assert [len(store.shard(i)) for i in range(4)] == [
            int(i == index) for i in range(4)
        ]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard_count"):
            ShardedLocationStore(0)


class TestIngestGates:
    def test_fresh_update_applied(self):
        store = ShardedLocationStore(2)
        assert apply_one(store, lu(t=1.0, seq=1)) is IngestOutcome.APPLIED
        assert store.applied == 1
        assert store.node_count == 1

    def test_duplicate_seq_suppressed(self):
        store = ShardedLocationStore(2)
        apply_one(store, lu(t=1.0, seq=5))
        assert apply_one(store, lu(t=1.0, seq=5)) is IngestOutcome.DUPLICATE
        assert apply_one(store, lu(t=2.0, seq=4)) is IngestOutcome.DUPLICATE
        assert store.duplicates == 2
        assert store.applied == 1

    def test_cross_shard_reorder_suppressed(self):
        """A node's older LU drained from another shard is a duplicate."""
        store = ShardedLocationStore(4)
        newer = lu(t=2.0, seq=2, region="bldg-9", x=5.0)
        older = lu(t=1.0, seq=1, region="road-1", x=1.0)
        apply_one(store, newer)
        assert apply_one(store, older) is IngestOutcome.DUPLICATE
        latest = store.latest("n1")
        assert latest is not None and latest.time == 2.0

    def test_time_regression_dropped_as_stale(self):
        store = ShardedLocationStore(2)
        apply_one(store, lu(t=5.0, seq=1))
        assert apply_one(store, lu(t=4.0, seq=2)) is IngestOutcome.STALE
        assert store.reordered == 1

    def test_equal_time_new_seq_applied(self):
        store = ShardedLocationStore(2)
        apply_one(store, lu(t=1.0, seq=1, x=1.0))
        assert apply_one(store, lu(t=1.0, seq=2, x=2.0)) is IngestOutcome.APPLIED
        latest = store.latest("n1")
        assert latest is not None and latest.position == Vec2(2.0, 0.0)

    def test_apply_returns_per_row_outcomes(self):
        store = ShardedLocationStore(2)
        updates = [
            lu(t=1.0, seq=1),
            lu(t=1.0, seq=1),  # duplicate seq
            lu(t=2.0, seq=2),
            lu(t=1.5, seq=3),  # fresher seq, older stamp -> stale
        ]
        batch = TraceBatch.from_records(TraceRecord.from_update(u) for u in updates)
        outcome = store.apply(batch, np.arange(len(updates)))
        assert [IngestOutcome(code) for code in outcome] == [
            IngestOutcome.APPLIED,
            IngestOutcome.DUPLICATE,
            IngestOutcome.APPLIED,
            IngestOutcome.STALE,
        ]
        assert (store.applied, store.duplicates, store.reordered) == (2, 1, 1)
        assert store.down_dropped == 0


class TestDbMonotonicity:
    """Out-of-order delivery can never corrupt a shard's LocationDB."""

    def test_db_time_monotone_under_shuffled_delivery(self):
        store = ShardedLocationStore(3)
        updates = [
            lu(node=f"n{i % 4}", t=float(i), seq=i, region=f"r{i % 5}")
            for i in range(20)
        ]
        # Deterministically mangle the order: reversed pairs + a repeat.
        shuffled = []
        for i in range(0, len(updates), 2):
            pair = updates[i : i + 2]
            shuffled.extend(reversed(pair))
            shuffled.append(pair[0])
        latest_times = {}
        for update in shuffled:
            apply_one(store, update)  # must never raise
            # Every shard's DB record of every node only moves forward.
            for index in range(3):
                for node in {u.node_id for u in updates}:
                    record = store.shard(index).latest(node)
                    if record is None:
                        continue
                    key = (index, node)
                    assert record.time >= latest_times.get(key, record.time)
                    latest_times[key] = record.time
        assert latest_times

    def test_estimate_then_old_fix_matches_broker_skip_db(self):
        """The store inherits the PR 4 ``skip_db`` path verbatim.

        After a shard broker stores an *estimated* record, a real fix
        with an older timestamp must feed the tracker (resync) but skip
        the DB write — identical to a lone degraded GridBroker.
        """
        config = BrokerConfig(
            report_interval=1.0,
            max_extrapolation_age=10.0,
            quarantine_age=30.0,
        )
        lone = GridBroker(config)
        store = ShardedLocationStore(
            1,
            report_interval=1.0,
            max_extrapolation_intervals=10.0,
            quarantine_intervals=30.0,
        )
        first = lu(t=1.0, seq=1, x=0.0)
        late = lu(t=3.0, seq=2, x=2.0)
        for target, tick in ((lone, lone.tick), (store, store.tick)):
            receive = (
                target.receive_update
                if isinstance(target, GridBroker)
                else lambda update: apply_one(store, update)
            )
            receive(first)
            tick(2.0)  # clears the updated-this-interval set
            tick(4.0)  # estimates a record at t=4 > late fix's t=3
            receive(late)

        # The late real fix skipped the DB: latest is the estimate, and
        # the DB counts match the lone broker's.
        lone_latest = lone.location_db.latest("n1")
        store_latest = store.shard(0).latest("n1")
        assert store_latest == lone_latest
        assert store_latest.source is RecordSource.ESTIMATED
        assert store_latest.time == 4.0
        state = store.shard(0).state_dict()
        assert state == lone.state_dict()
        assert state["db"]["stored_received"] == lone.location_db.stored_received
        assert state["db"]["stored_estimated"] == lone.location_db.stored_estimated

    def test_parity_with_lone_broker_on_in_order_stream(self):
        """Single shard + in-order stream ⇒ byte-for-byte broker parity."""
        config = BrokerConfig(
            report_interval=1.0,
            max_extrapolation_age=10.0,
            quarantine_age=30.0,
        )
        lone = GridBroker(config)
        store = ShardedLocationStore(1)
        stream = [lu(t=float(t), seq=t, x=float(t)) for t in range(1, 8)]
        for update in stream:
            lone.receive_update(update)
            apply_one(store, update)
            assert store.shard(0).latest("n1") == lone.location_db.latest("n1")
            assert store.shard(0).state_dict() == lone.state_dict()


class TestDegradationSweep:
    def test_tick_extrapolates_silent_nodes(self):
        store = ShardedLocationStore(2, report_interval=1.0)
        apply_one(store, lu(t=1.0, seq=1, vx=2.0))
        store.tick(2.0)  # the LU's own interval: nothing to estimate yet
        made = store.tick(3.0)
        assert made == 1
        assert store.estimates_made == 1

    def test_quarantine_and_resync(self):
        store = ShardedLocationStore(
            2,
            report_interval=1.0,
            max_extrapolation_intervals=3.0,
            quarantine_intervals=5.0,
        )
        apply_one(store, lu(t=1.0, seq=1))
        store.tick(2.0)
        store.tick(10.0)  # silent for 9 intervals > quarantine age 5
        assert store.quarantines == 1
        apply_one(store, lu(t=11.0, seq=2))
        assert store.resyncs == 1

    def test_believed_position_follows_owning_shard(self):
        store = ShardedLocationStore(4)
        apply_one(store, lu(t=1.0, seq=1, region="road-1", x=3.0))
        apply_one(store, lu(t=2.0, seq=2, region="bldg-9", x=7.0))
        assert store.believed_position("n1", 2.0) == Vec2(7.0, 0.0)
        assert store.believed_position("ghost") is None
        assert store.latest("ghost") is None


class TestThreadSafety:
    def test_shard_accounting(self):
        store = ShardedLocationStore(2)
        apply_one(store, lu(node="a", t=1.0, seq=1, region="r1"))
        apply_one(store, lu(node="b", t=1.0, seq=2, region="r2"))
        assert sum(store.shard_sizes()) == 2
        assert sum(store.shard_received()) == 2
