"""Tests for the broker's location database."""

import pytest

from repro.broker import LocationDB, LocationRecord, RecordSource
from repro.geometry import Vec2


def record(node="n", t=0.0, x=0.0, source=RecordSource.RECEIVED):
    return LocationRecord(node_id=node, time=t, position=Vec2(x, 0.0), source=source)


class TestStore:
    def test_store_and_latest(self):
        db = LocationDB()
        db.store(record(t=1.0, x=5.0))
        latest = db.latest("n")
        assert latest is not None and latest.position == Vec2(5, 0)

    def test_latest_unknown_is_none(self):
        assert LocationDB().latest("ghost") is None

    def test_newer_replaces(self):
        db = LocationDB()
        db.store(record(t=1.0, x=5.0))
        db.store(record(t=2.0, x=7.0))
        assert db.position_of("n") == Vec2(7, 0)

    def test_stale_record_rejected(self):
        db = LocationDB()
        db.store(record(t=2.0))
        with pytest.raises(ValueError, match="older"):
            db.store(record(t=1.0))

    def test_equal_time_allowed(self):
        db = LocationDB()
        db.store(record(t=1.0, x=1.0))
        db.store(record(t=1.0, x=2.0))
        assert db.position_of("n") == Vec2(2, 0)

    def test_membership(self):
        db = LocationDB()
        db.store(record())
        assert "n" in db
        assert "ghost" not in db
        assert len(db) == 1
        assert db.node_ids() == ["n"]


class TestOutOfOrderDelivery:
    """DB-time monotonicity under the reordered/duplicate streams the
    serving replay path can produce (drains can reorder across shards)."""

    def test_out_of_order_store_rejected_history_stays_sorted(self):
        # The rejected record is neither stored nor counted: the latest
        # record is still the newer one.
        db = LocationDB()
        db.store(record(t=1.0, x=1.0))
        db.store(record(t=3.0, x=3.0))
        with pytest.raises(ValueError, match="older"):
            db.store(record(t=2.0, x=2.0))
        latest = db.latest("n")
        assert latest is not None
        assert (latest.time, latest.position) == (3.0, Vec2(3, 0))
        assert (db.stored_received, db.stored_estimated) == (2, 0)

    def test_duplicate_time_redelivery_keeps_monotonicity(self):
        # Equal-time re-store is allowed (last-writer-wins), so a
        # duplicate delivery can never break the ordering invariant.
        db = LocationDB()
        db.store(record(t=1.0, x=1.0))
        db.store(record(t=1.0, x=1.0))
        latest = db.latest("n")
        assert latest is not None and latest.time == 1.0
        assert (db.stored_received, db.stored_estimated) == (2, 0)

    def test_estimate_then_older_real_fix_needs_skip_db(self):
        """The raw DB rejects the PR 4 ``skip_db`` case; the degraded
        broker (and the serving store built on it) must skip the write."""
        from repro.broker.broker import BrokerConfig, GridBroker

        db = LocationDB()
        db.store(record(t=4.0, source=RecordSource.ESTIMATED))
        with pytest.raises(ValueError, match="older"):
            db.store(record(t=3.0, source=RecordSource.RECEIVED))

        # The degraded broker's skip_db path handles the same sequence:
        # the late real fix feeds the tracker but leaves the DB alone.
        from repro.geometry import Vec2
        from repro.network.messages import LocationUpdate

        broker = GridBroker(
            BrokerConfig(max_extrapolation_age=10.0, quarantine_age=30.0)
        )
        broker.receive_update(
            LocationUpdate(
                sender="n", timestamp=1.0, seq=1, node_id="n",
                position=Vec2(0.0, 0.0), velocity=Vec2(1.0, 0.0),
            )
        )
        broker.tick(2.0)
        broker.tick(4.0)  # stores an ESTIMATED record at t=4
        broker.receive_update(
            LocationUpdate(
                sender="n", timestamp=3.0, seq=2, node_id="n",
                position=Vec2(3.0, 0.0), velocity=Vec2(1.0, 0.0),
            )
        )
        db = broker.location_db
        latest = db.latest("n")
        assert latest is not None and latest.source is RecordSource.ESTIMATED
        assert latest.time == 4.0
        # One received record (t=1) and one estimate (t=4); the late fix
        # at t=3 never reached the DB.
        assert (db.stored_received, db.stored_estimated) == (1, 1)
        # ... while the tracker did absorb the real fix:
        tracker = broker.tracker("n")
        assert tracker is not None and tracker.last_fix is not None
        assert tracker.last_fix[0] == 3.0


class TestProvenance:
    def test_source_counted(self):
        db = LocationDB()
        db.store(record(t=0.0, source=RecordSource.RECEIVED))
        db.store(record(t=1.0, source=RecordSource.ESTIMATED))
        db.store(record(t=2.0, source=RecordSource.ESTIMATED))
        assert db.stored_received == 1
        assert db.stored_estimated == 2
        assert db.estimate_fraction == pytest.approx(2 / 3)

    def test_is_estimate_flag(self):
        est = record(source=RecordSource.ESTIMATED)
        assert est.is_estimate
        assert not record().is_estimate

    def test_estimate_fraction_empty(self):
        assert LocationDB().estimate_fraction == 0.0
