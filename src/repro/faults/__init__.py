"""repro.faults — deterministic fault injection and recovery.

The paper evaluates the ADF on an ideal wireless substrate; a mobile grid's
defining property is that its substrate is *not* ideal.  This package makes
the failure modes first-class and reproducible:

* :class:`FaultSchedule` — declarative, validated fault windows: gateway
  outages, regional blackouts, channel degradations (independent or
  Gilbert–Elliott burst loss, latency inflation) and node churn, built
  either as a pure function of a scalar intensity or drawn from a
  dedicated ``util.rng`` stream — either way, a given seed replays the
  exact same fault timeline;
* :class:`FaultInjector` — binds a schedule to live gateways/channels on
  the simulator, recording an authoritative action timeline and emitting
  telemetry events; the channel recomputes its ``transparent`` flag on
  every change, so the gateway's fused path cannot bypass a fault;
* :class:`ChurnTracker` — the offline-node bookkeeping of node churn,
  polled once per node per step by the loops that honour churn (the
  evaluation harness and the chaos study);
* reliable transport lives in :class:`repro.network.reliable.ReliableLink`
  (ack-by-seq ARQ) and broker-side degradation in
  :class:`repro.broker.broker.GridBroker` (bounded extrapolation,
  quarantine, resync) — this package orchestrates them; the chaos study in
  :mod:`repro.experiments.chaos` measures the damage and the recovery.

See ``docs/resilience.md`` for the fault model and policies.
"""

from repro.faults.churn import ChurnTracker, Presence
from repro.faults.injector import FaultInjector, TimelineEntry
from repro.faults.schedule import (
    ChannelDegradation,
    FaultSchedule,
    GatewayOutage,
    NodeChurn,
    RegionBlackout,
    ShardCrash,
)
from repro.network.channel import GilbertElliottLoss

__all__ = [
    "ChannelDegradation",
    "ChurnTracker",
    "FaultInjector",
    "FaultSchedule",
    "GatewayOutage",
    "GilbertElliottLoss",
    "NodeChurn",
    "Presence",
    "RegionBlackout",
    "ShardCrash",
    "TimelineEntry",
]
