"""Tests for the region-sharded location store."""

import pytest

from repro.broker.broker import BrokerConfig, GridBroker
from repro.broker.location_db import RecordSource
from repro.geometry import Vec2
from repro.network.messages import LocationUpdate
from repro.serving import IngestOutcome, ShardedLocationStore, shard_for


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
        store.apply(lu(region="road-1"))
        index = shard_for("road-1", 4)
        assert store.shard(index).location_db.latest("n1") is not None

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard_count"):
            ShardedLocationStore(0)


class TestIngestGates:
    def test_fresh_update_applied(self):
        store = ShardedLocationStore(2)
        assert store.apply(lu(t=1.0, seq=1)) is IngestOutcome.APPLIED
        assert store.applied == 1
        assert store.node_count == 1

    def test_duplicate_seq_suppressed(self):
        store = ShardedLocationStore(2)
        store.apply(lu(t=1.0, seq=5))
        assert store.apply(lu(t=1.0, seq=5)) is IngestOutcome.DUPLICATE
        assert store.apply(lu(t=2.0, seq=4)) is IngestOutcome.DUPLICATE
        assert store.duplicates == 2
        assert store.applied == 1

    def test_cross_shard_reorder_suppressed(self):
        """A node's older LU drained from another shard is a duplicate."""
        store = ShardedLocationStore(4)
        newer = lu(t=2.0, seq=2, region="bldg-9", x=5.0)
        older = lu(t=1.0, seq=1, region="road-1", x=1.0)
        store.apply(newer)
        assert store.apply(older) is IngestOutcome.DUPLICATE
        latest = store.latest("n1")
        assert latest is not None and latest.time == 2.0

    def test_time_regression_dropped_as_stale(self):
        store = ShardedLocationStore(2)
        store.apply(lu(t=5.0, seq=1))
        assert store.apply(lu(t=4.0, seq=2)) is IngestOutcome.STALE
        assert store.reordered == 1

    def test_equal_time_new_seq_applied(self):
        store = ShardedLocationStore(2)
        store.apply(lu(t=1.0, seq=1, x=1.0))
        assert store.apply(lu(t=1.0, seq=2, x=2.0)) is IngestOutcome.APPLIED
        latest = store.latest("n1")
        assert latest is not None and latest.position == Vec2(2.0, 0.0)

    def test_apply_batch_returns_per_outcome_tallies(self):
        store = ShardedLocationStore(2)
        batch = [
            lu(t=1.0, seq=1),
            lu(t=1.0, seq=1),  # duplicate seq
            lu(t=2.0, seq=2),
            lu(t=1.5, seq=3),  # fresher seq, older stamp -> stale
        ]
        tally = store.apply_batch(batch)
        assert tally.applied == 2
        assert tally.duplicates == 1
        assert tally.stale == 1
        assert tally.down == 0
        assert tally.total == len(batch)
        assert tally.as_dict() == {
            "applied": 2,
            "down": 0,
            "duplicates": 1,
            "stale": 1,
        }


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
        for update in shuffled:
            store.apply(update)  # must never raise
        for index in range(3):
            db = store.shard(index).location_db
            for node in db.node_ids():
                times = [r.time for r in db.history(node)]
                assert times == sorted(times)

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
                else target.apply
            )
            receive(first)
            tick(2.0)  # clears the updated-this-interval set
            tick(4.0)  # estimates a record at t=4 > late fix's t=3
            receive(late)

        def db_of(target):
            if isinstance(target, GridBroker):
                return target.location_db
            return target.shard(0).location_db

        for target in (lone, store):
            db = db_of(target)
            history = db.history("n1")
            assert [r.time for r in history] == sorted(
                r.time for r in history
            )
            # The late real fix skipped the DB: latest is the estimate.
            latest = db.latest("n1")
            assert latest is not None
            assert latest.source is RecordSource.ESTIMATED
        assert (
            db_of(store).stored_received == db_of(lone).stored_received
        )
        assert (
            db_of(store).stored_estimated == db_of(lone).stored_estimated
        )

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
            store.apply(update)
        lone_db = lone.location_db
        store_db = store.shard(0).location_db
        assert [
            (r.time, r.position, r.source) for r in lone_db.history("n1")
        ] == [(r.time, r.position, r.source) for r in store_db.history("n1")]


class TestDegradationSweep:
    def test_tick_extrapolates_silent_nodes(self):
        store = ShardedLocationStore(2, report_interval=1.0)
        store.apply(lu(t=1.0, seq=1, vx=2.0))
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
        store.apply(lu(t=1.0, seq=1))
        store.tick(2.0)
        store.tick(10.0)  # silent for 9 intervals > quarantine age 5
        assert store.quarantines == 1
        store.apply(lu(t=11.0, seq=2))
        assert store.resyncs == 1

    def test_believed_position_follows_owning_shard(self):
        store = ShardedLocationStore(4)
        store.apply(lu(t=1.0, seq=1, region="road-1", x=3.0))
        store.apply(lu(t=2.0, seq=2, region="bldg-9", x=7.0))
        assert store.believed_position("n1", 2.0) == Vec2(7.0, 0.0)
        assert store.believed_position("ghost") is None
        assert store.latest("ghost") is None


class TestThreadSafety:
    def test_shard_accounting(self):
        store = ShardedLocationStore(2)
        store.apply(lu(node="a", t=1.0, seq=1, region="r1"))
        store.apply(lu(node="b", t=1.0, seq=2, region="r2"))
        assert sum(store.shard_sizes()) == 2
        assert sum(store.shard_received()) == 2
