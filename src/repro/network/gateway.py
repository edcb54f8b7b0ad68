"""Wireless gateways: base stations (roads) and access points (buildings).

Per the paper's architecture (§3.4), MNs transmit their location to the
wireless gateway covering their region; the gateway collects incoming LUs
and forwards them to the ADF.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.campus import Region
from repro.network.channel import WirelessChannel
from repro.network.messages import LocationUpdate
from repro.telemetry import NULL_TELEMETRY, Severity

__all__ = ["WirelessGateway"]


class WirelessGateway:
    """One gateway per campus region.

    The gateway's *uplink* delivers LUs to a sink (normally the ADF).  An
    operational flag supports failure injection: a downed gateway silently
    discards traffic, as a real dead AP would.
    """

    def __init__(
        self,
        region: Region,
        uplink: WirelessChannel,
        sink: Callable[[LocationUpdate], None],
        *,
        telemetry: Any = None,
    ) -> None:
        self.region = region
        self._uplink = uplink
        self._sink = sink
        self.operational = True
        self.received = 0
        self.forwarded = 0
        self.discarded = 0
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._telemetry = tm
        self._instrumented = tm.enabled
        # The uplink name carries the lane (e.g. "adf-1/R3"), so labelling
        # by it keeps per-lane resolution where region alone would collapse
        # all lanes' gateways for one region into a single counter.
        labels = {"region": region.region_id, "uplink": uplink.name}
        self._t_received = tm.counter("net.gateway.received", **labels)
        self._t_forwarded = tm.counter("net.gateway.forwarded", **labels)
        self._t_discarded = tm.counter("net.gateway.discarded", **labels)

    @property
    def gateway_id(self) -> str:
        """Id of the gateway: ``gw.<region>``."""
        return f"gw.{self.region.region_id}"

    @property
    def uplink(self) -> WirelessChannel:
        """The channel this gateway forwards over (fault injection hooks)."""
        return self._uplink

    def covers(self, update: LocationUpdate) -> bool:
        """True when the update's fix lies inside this gateway's region."""
        return self.region.contains(update.position, tol=1e-6)

    def receive(self, update: LocationUpdate) -> None:
        """Accept an LU from an MN and forward it upstream."""
        uplink = self._uplink
        if uplink.transparent and not self._instrumented and self.operational:
            # Fused fast path: a transparent uplink always accepts and
            # delivers at once, so fold its send() bookkeeping into this
            # frame — same counters (sent/bytes_sent/delivered), same
            # synchronous delivery.  The channel recomputes the flag on
            # every parameter change, so an injected fault defeats it.
            self.received += 1
            stats = uplink.stats
            stats.sent += 1
            stats.bytes_sent += update.size_bytes
            stats.delivered += 1
            self.forwarded += 1
            self._sink(update)
            return
        instrumented = self._instrumented
        self.received += 1
        if instrumented:
            self._t_received.inc()
        if not self.operational:
            self.discarded += 1
            if instrumented:
                self._t_discarded.inc()
            return
        accepted = uplink.send(update, self._sink)
        if accepted:
            self.forwarded += 1
            if instrumented:
                self._t_forwarded.inc()
        else:
            self.discarded += 1
            if instrumented:
                self._t_discarded.inc()

    def fail(self) -> None:
        """Take the gateway down (failure injection)."""
        self.operational = False
        self._telemetry.event(
            Severity.WARNING,
            "gateway down",
            source=self.gateway_id,
            region=self.region.region_id,
        )

    def restore(self) -> None:
        """Bring the gateway back up."""
        self.operational = True
        self._telemetry.event(
            Severity.INFO,
            "gateway restored",
            source=self.gateway_id,
            region=self.region.region_id,
        )

    def __repr__(self) -> str:
        state = "up" if self.operational else "down"
        return f"WirelessGateway({self.gateway_id}, {state})"
