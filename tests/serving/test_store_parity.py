"""Parity: a column shard is a degraded-mode ``GridBroker``, step by step.

Hypothesis draws LU streams over a few nodes, regions and shards —
duplicate and regressed seqs, equal times, silences past the
extrapolation and quarantine ages, ticks in between, ``dth`` zero and
positive, the Location Estimator on and off — and applies them to a
:class:`ShardedLocationStore` in batches (one :meth:`apply` per shard,
as a flush does) or one LU at a time.  The reference is the store gate
written out per LU plus one ``GridBroker`` per shard fed the LUs that
pass it.  After every step each shard's ``state_dict`` must equal its
broker's, and beliefs must agree at drawn times.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.broker.broker import BrokerConfig, GridBroker
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

NODES = ("a", "b", "c")
REGIONS = ("r0", "r1", "r2", "r3")

_lu = st.tuples(
    st.just("lu"),
    # "a" reports most, so "b" and "c" fall silent across sweeps
    st.sampled_from(("a", "a", "a", "b", "c")),
    st.sampled_from(REGIONS),
    # seq step: 0 repeats the last seq, negatives regress it
    st.integers(min_value=-2, max_value=3),
    # time step: 0 repeats the last time, negatives regress it, the big
    # ones open gaps past the extrapolation and quarantine ages; None
    # lands half-way to the latest sweep, behind an estimate (skip_db)
    st.sampled_from((-1.5, 0.0, 0.0, 0.25, 1.0, 2.5, 7.0, 40.0, None, None)),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32),
    st.sampled_from((0.0, 0.0, 1e-12, 0.7, -2.0, 3.5)),
    st.sampled_from((0.0, 0.4, -1.25, 2.0)),
    st.sampled_from((0.0, 0.5, 4.0)),
)
_tick = st.tuples(st.just("tick"), st.sampled_from((0.0, 0.5, 1.0, 3.0, 12.0)))
_steps = st.lists(
    st.one_of(st.lists(_lu, min_size=1, max_size=8), _tick, _tick),
    min_size=1,
    max_size=16,
)


class Reference:
    """The store gate per LU, in front of one degraded GridBroker per shard."""

    def __init__(self, shards, config):
        self.shards = shards
        self.brokers = [GridBroker(config) for _ in range(shards)]
        self.gates = {}
        self.counts = {outcome: 0 for outcome in IngestOutcome}

    def apply(self, update):
        gate = self.gates.get(update.node_id)
        if gate is not None and update.seq <= gate[0]:
            outcome = IngestOutcome.DUPLICATE
        elif gate is not None and update.timestamp < gate[1]:
            outcome = IngestOutcome.STALE
        else:
            index = shard_for(update.region_id, self.shards)
            self.brokers[index].receive_update(update)
            self.gates[update.node_id] = (update.seq, update.timestamp, index)
            outcome = IngestOutcome.APPLIED
        self.counts[outcome] += 1
        return outcome

    def tick(self, now):
        return sum(broker.tick(now) for broker in self.brokers)


def _check(store, reference, times):
    for index, broker in enumerate(reference.brokers):
        shard = store.shard(index)
        assert shard.state_dict() == broker.state_dict()
        for node in NODES:
            for now in times:
                assert shard.believed_position(node, now) == (
                    broker.believed_position(node, now)
                )
            assert shard.latest(node) == broker.location_db.latest(node)
    for node in NODES:
        gate = reference.gates.get(node)
        owner = None if gate is None else reference.brokers[gate[2]]
        for now in times:
            expected = None if owner is None else owner.believed_position(node, now)
            assert store.believed_position(node, now) == expected
    assert store.applied == reference.counts[IngestOutcome.APPLIED]
    assert store.duplicates == reference.counts[IngestOutcome.DUPLICATE]
    assert store.reordered == reference.counts[IngestOutcome.STALE]
    assert store.node_count == len(reference.gates)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    steps=_steps,
    shards=st.integers(min_value=1, max_value=3),
    estimator=st.booleans(),
    ages=st.sampled_from(((1.0, 1.0), (2.0, 5.0), (10.0, 30.0))),
    batched=st.booleans(),
    offsets=st.lists(
        st.sampled_from((0.0, 0.5, 1.5, 4.0, 50.0)), min_size=1, max_size=3
    ),
)
def test_column_shards_match_grid_brokers(
    steps, shards, estimator, ages, batched, offsets
):
    extrapolate, quarantine = ages
    config = BrokerConfig(
        use_location_estimator=estimator,
        report_interval=1.0,
        max_extrapolation_age=extrapolate,
        quarantine_age=quarantine,
    )
    store = ShardedLocationStore(
        shards,
        max_extrapolation_intervals=extrapolate,
        quarantine_intervals=quarantine,
        use_location_estimator=estimator,
    )
    reference = Reference(shards, config)
    seqs = dict.fromkeys(NODES, 0)
    clocks = dict.fromkeys(NODES, 1.0)
    horizon = 1.0
    for step in steps:
        if step[0] == "tick":
            horizon += step[1]
            assert store.tick(horizon) == reference.tick(horizon)
        else:
            updates = []
            for _, node, region, dseq, dt, x, y, vx, vy, dth in step:
                seqs[node] += dseq
                if dt is None:
                    clocks[node] = (clocks[node] + horizon) / 2.0
                else:
                    clocks[node] += dt
                horizon = max(horizon, clocks[node])
                updates.append(
                    LocationUpdate(
                        sender=node,
                        timestamp=clocks[node],
                        seq=seqs[node],
                        node_id=node,
                        position=Vec2(x, y),
                        velocity=Vec2(vx, vy),
                        region_id=region,
                        dth=dth,
                    )
                )
            if batched:
                # One flush: each shard's rows in one apply, shard by shard.
                batch = TraceBatch.from_records(
                    TraceRecord.from_update(u) for u in updates
                )
                route = store.route(batch)
                for index in range(shards):
                    rows = np.flatnonzero(route == index)
                    outcome = store.apply(batch, rows)
                    expected = [reference.apply(updates[row]) for row in rows]
                    assert [IngestOutcome(code) for code in outcome] == expected
            else:
                for update in updates:
                    assert apply_one(store, update) is reference.apply(update)
        _check(store, reference, [None] + [horizon + offset for offset in offsets])


def test_stale_drop_behind_a_purged_gate_matches_grid_broker():
    """A crash purges the gates a shard owned; an old LU of such a node
    then passes the gate into another shard whose tracker holds a later
    fix, and that shard drops it as stale, as a GridBroker does."""
    store = ShardedLocationStore(2)
    config = BrokerConfig(
        report_interval=1.0, max_extrapolation_age=10.0, quarantine_age=30.0
    )
    regions = {shard_for(f"r{i}", 2): f"r{i}" for i in range(8)}
    home, away = regions[0], regions[1]
    broker = GridBroker(config)

    def lu(t, seq, region):
        return LocationUpdate(
            sender="a",
            timestamp=t,
            seq=seq,
            node_id="a",
            position=Vec2(t, 0.0),
            velocity=Vec2(1.0, 0.0),
            region_id=region,
            dth=0.0,
        )

    apply_one(store, lu(5.0, 1, away))
    broker.receive_update(lu(5.0, 1, away))
    apply_one(store, lu(6.0, 2, home))  # the gate moves to shard 0
    store.crash_shard(0)
    assert apply_one(store, lu(3.0, 3, away)) is IngestOutcome.APPLIED
    broker.receive_update(lu(3.0, 3, away))
    assert store.broker_stale_dropped == broker.stale_lus_dropped == 1
    assert store.shard(1).state_dict() == broker.state_dict()
