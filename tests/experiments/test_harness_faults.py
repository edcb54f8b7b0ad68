"""Harness fault-injection wiring and fast-path parity tests."""

import functools
from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, MobileGridExperiment, run_experiment
from repro.faults import (
    ChannelDegradation,
    FaultSchedule,
    GatewayOutage,
    NodeChurn,
)
from repro.faults.churn import Presence
from repro.mobility.population import PopulationSpec
from repro.network import GilbertElliottLoss
from repro.util.rng import RngRegistry


def tiny_config(duration=20.0, **kwargs):
    return ExperimentConfig(
        duration=duration,
        dth_factors=(1.0,),
        population=PopulationSpec(
            road_humans_per_road=1,
            road_vehicles_per_road=1,
            building_stop=1,
            building_random=1,
            building_linear=1,
        ),
        **kwargs,
    )


def lane_fingerprint(result, name="adf-1"):
    lane = result.lanes[name]
    return (
        lane.total_lus,
        lane.mean_rmse(with_le=True),
        lane.mean_rmse(with_le=False),
    )


class TestFastPathParity:
    """The gateways' fused uplink path must be observationally identical
    to routing every LU through the channel's send()."""

    def test_inlined_path_matches_general_path(self):
        config = tiny_config()
        fused = MobileGridExperiment(config)
        general = MobileGridExperiment(config)
        # A burst model that never changes state or drops draws nothing,
        # but it makes the channel non-transparent: the general path.
        never_drops = GilbertElliottLoss(
            p_good_bad=0.0, p_bad_good=0.0, loss_good=0.0, loss_bad=0.0
        )
        for lane in general.lanes:
            for gateway in lane.gateways.values():
                assert gateway.uplink.transparent  # default substrate is fused
                gateway.uplink.configure(burst_loss=never_drops)
                assert not gateway.uplink.transparent
        fused_result = fused.run()
        general_result = general.run()
        for name in fused_result.lanes:
            assert lane_fingerprint(fused_result, name) == lane_fingerprint(
                general_result, name
            )
        for lane_f, lane_g in zip(fused.lanes, general.lanes):
            for region_id, gw_f in lane_f.gateways.items():
                gw_g = lane_g.gateways[region_id]
                assert (gw_f.received, gw_f.forwarded, gw_f.discarded) == (
                    gw_g.received,
                    gw_g.forwarded,
                    gw_g.discarded,
                )
                for field in ("sent", "delivered", "dropped", "bytes_sent"):
                    assert getattr(gw_f.uplink.stats, field) == getattr(
                        gw_g.uplink.stats, field
                    )


class TestFaultWiring:
    def test_no_schedule_means_no_injector(self):
        experiment = MobileGridExperiment(tiny_config())
        assert experiment.fault_injector is None

    def test_empty_schedule_means_no_injector(self):
        experiment = MobileGridExperiment(tiny_config(faults=FaultSchedule()))
        assert experiment.fault_injector is None

    def test_empty_schedule_is_bit_identical_to_none(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config(faults=FaultSchedule()))
        assert lane_fingerprint(a) == lane_fingerprint(b)
        assert lane_fingerprint(a, "ideal") == lane_fingerprint(b, "ideal")

    def test_outage_schedule_drops_lus(self):
        schedule = FaultSchedule(
            tuple(
                GatewayOutage(region_id=region_id, start=5.0, duration=10.0)
                for region_id in ("R1", "R2", "B1", "B2")
            )
        )
        clean = run_experiment(tiny_config())
        faulted_experiment = MobileGridExperiment(tiny_config(faults=schedule))
        faulted = faulted_experiment.run()
        assert faulted.ideal.total_lus < clean.ideal.total_lus
        timeline = faulted_experiment.fault_injector.timeline
        assert any(e.action == "apply" for e in timeline)
        assert any(e.action == "revert" for e in timeline)
        # Every gateway is operational again after the run.
        for lane in faulted_experiment.lanes:
            assert all(gw.operational for gw in lane.gateways.values())

    def test_degradation_schedule_loses_traffic(self):
        schedule = FaultSchedule(
            (
                ChannelDegradation(
                    start=2.0, duration=15.0, loss_probability=0.8
                ),
            )
        )
        clean = run_experiment(tiny_config())
        faulted = run_experiment(tiny_config(faults=schedule))
        assert faulted.ideal.total_lus < clean.ideal.total_lus

    def test_churn_schedule_honoured_by_harness(self):
        schedule = FaultSchedule(
            (NodeChurn(start=0.0, duration=10.0, hazard=0.1, mean_outage=5.0),)
        )
        clean = run_experiment(tiny_config())
        churned = run_experiment(tiny_config(faults=schedule))
        assert churned.disconnections > 0
        assert churned.ideal.total_lus < clean.ideal.total_lus

    def test_faulted_run_still_deterministic(self):
        schedule = FaultSchedule(
            (
                GatewayOutage(region_id="R1", start=3.0, duration=5.0),
                ChannelDegradation(
                    start=8.0, duration=6.0, loss_probability=0.5
                ),
            )
        )
        a = run_experiment(tiny_config(faults=schedule))
        b = run_experiment(tiny_config(faults=schedule))
        assert lane_fingerprint(a) == lane_fingerprint(b)


def churn_schedule(hazard=0.2, mean_outage=3.0, start=0.0, duration=21.0):
    return FaultSchedule(
        (
            NodeChurn(
                start=start,
                duration=duration,
                hazard=hazard,
                mean_outage=mean_outage,
            ),
        )
    )


def tap(receive, seen, update, record=None):
    """Note *update* in *seen*, then hand it to the broker's *receive*."""
    seen.add((update.node_id, update.timestamp))
    receive(update, record)


def record_presence(experiment):
    """Wrap the harness's churn tracker; returns the (node, time, presence) log."""
    tracker = experiment._churn
    poll = tracker.poll
    log = []

    def recording(node_id):
        presence = poll(node_id)
        log.append((node_id, experiment.sim.now, presence))
        return presence

    tracker.poll = recording
    return log


class TestHarnessChurn:
    def test_offline_nodes_reach_no_lane(self):
        experiment = MobileGridExperiment(tiny_config(faults=churn_schedule()))
        log = record_presence(experiment)
        result = experiment.run()
        online = sum(presence is not Presence.OFFLINE for _, _, presence in log)
        assert len(log) == result.node_count * 20
        assert result.disconnections > 0
        assert result.ideal.total_lus == online < len(log)

    def test_every_reconnection_transmits_on_every_filter_lane(self):
        config = replace(
            tiny_config(
                duration=30.0,
                include_general_df=True,
                faults=churn_schedule(duration=31.0),
            ),
            dth_factors=(0.75, 1.25),
        )
        experiment = MobileGridExperiment(config)
        transmitted = {lane.name: set() for lane in experiment.lanes}
        for lane in experiment.lanes:
            # Each LU a lane transmits reaches its with-LE broker once.
            broker = lane.broker_with_le
            broker.receive_update = functools.partial(
                tap, broker.receive_update, transmitted[lane.name]
            )
        log = record_presence(experiment)
        result = experiment.run()
        returns = {
            (node_id, now)
            for node_id, now, presence in log
            if presence is Presence.RETURNED
        }
        assert len(returns) == result.reconnections > 0
        filter_lanes = [name for name in result.lanes if name != "ideal"]
        assert filter_lanes == ["adf-0.75", "adf-1.25", "gdf-0.75", "gdf-1.25"]
        for name in filter_lanes:
            assert returns <= transmitted[name], name

    def test_only_online_nodes_are_scored(self):
        """Hazard 1 with a sub-interval outage: every node alternates.

        Each online step is a return, whose LU transmits on the ADF lane,
        so the brokers know every online node exactly; an offline node's
        stale fix would show as error if it were scored.
        """
        result = run_experiment(
            tiny_config(faults=churn_schedule(hazard=1.0, mean_outage=1e-6))
        )
        lane = result.lanes["adf-1"]
        assert result.reconnections > 0
        assert lane.total_lus == result.ideal.total_lus
        assert lane.mean_rmse(with_le=True) == 0.0
        assert lane.mean_rmse(with_le=False) == 0.0

    def test_nodes_gone_for_good_are_not_scored(self):
        """Every node leaves at 5 s and never returns.

        From then on no step has a truth sample: the RMSE series and the
        classifier score stop where the connected run ends.
        """
        schedule = churn_schedule(
            hazard=1.0, mean_outage=1000.0, start=5.0, duration=1.0
        )
        gone = MobileGridExperiment(tiny_config(faults=schedule))
        result = gone.run()
        connected = MobileGridExperiment(tiny_config(duration=4.0))
        connected.run()
        assert result.disconnections == result.node_count
        assert len(result.lanes["adf-1"].rmse_with_le) == 4
        assert gone._classified_total == connected._classified_total > 0
        assert result.classification_accuracy == pytest.approx(
            connected._classified_right / connected._classified_total
        )

    @pytest.mark.parametrize(
        "schedule",
        [
            FaultSchedule(
                (GatewayOutage(region_id="R1", start=3.0, duration=5.0),)
            ),
            churn_schedule(start=50.0),
        ],
        ids=["no-churn", "window-after-run"],
    )
    def test_no_active_churn_draws_nothing(self, schedule):
        experiment = MobileGridExperiment(tiny_config(faults=schedule))
        result = experiment.run()
        assert result.disconnections == result.reconnections == 0
        fresh = RngRegistry(experiment.config.seed).stream("faults/churn")
        assert experiment.rng.stream("faults/churn").random() == fresh.random()
