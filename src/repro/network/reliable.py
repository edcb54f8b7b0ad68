"""Reliable LU transport: a stop-and-wait-per-message ARQ wrapper.

The paper's LU path is fire-and-forget: an LU dropped by the channel (or a
downed gateway) is simply gone, and the broker extrapolates blind.  On a
volatile mobile-grid link layer that is the dominant error source, so this
module wraps any :class:`~repro.network.channel.WirelessChannel` with a
classic ARQ protocol:

* every message is acknowledged by seq (the previously dormant
  :class:`~repro.network.messages.Ack` type);
* an unacknowledged message is retransmitted after an exponentially
  backed-off timeout, up to a bounded retry budget;
* the receiver deduplicates by seq (a retransmit whose ack was lost must
  not double-deliver) and re-acks duplicates;
* everything is surfaced as counters — retransmits, duplicates, gave-ups —
  both on :class:`ReliableLinkStats` and through telemetry.

Each in-flight message is tracked independently (selective repeat, window
unbounded): LUs are idempotent state reports, so ordering guarantees are
left to the consumer and the protocol stays simple.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.network.channel import WirelessChannel
from repro.network.messages import Ack, Message, SequenceSource
from repro.simkernel import Simulator
from repro.telemetry import NULL_TELEMETRY

__all__ = ["ReliableLink", "ReliableLinkStats"]


@dataclass
class ReliableLinkStats:
    """Counters accumulated by a reliable link."""

    #: Distinct messages offered to :meth:`ReliableLink.send`.
    offered: int = 0
    #: Transmission attempts (first sends + retransmits).
    transmissions: int = 0
    #: Retransmissions only.
    retransmits: int = 0
    #: Distinct messages delivered to the sink (dedup'd).
    delivered: int = 0
    #: Arrivals suppressed as duplicates of an already-delivered seq.
    duplicates: int = 0
    #: Messages abandoned after the retry budget was exhausted.
    gave_up: int = 0
    #: Acks transmitted by the receiver side.
    acks_sent: int = 0
    #: Acks that reached the sender.
    acks_received: int = 0

    @property
    def delivery_rate(self) -> float:
        """Fraction of offered messages that were ultimately delivered."""
        return self.delivered / self.offered if self.offered else 0.0


class _Pending:
    """Sender-side state for one unacknowledged message."""

    __slots__ = ("message", "attempts", "timeout", "done")

    def __init__(self, message: Message) -> None:
        self.message = message
        self.attempts = 0
        self.timeout = 0.0
        self.done = False


class ReliableLink:
    """ARQ wrapper around a wireless channel.

    *channel* carries the data messages, *ack_channel* the acknowledgements
    (defaults to the data channel — a symmetric link; pass a separate
    channel to model asymmetric loss).  *sink* receives each distinct
    message exactly once.  *accept*, when given, gates arrivals at the
    receiver: a message arriving while ``accept(message)`` is false is
    discarded without an ack (modelling a downed gateway — the sender keeps
    retransmitting and short outages are ridden out by the retry budget).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        sink: Callable[[Message], None],
        *,
        ack_channel: WirelessChannel | None = None,
        accept: Callable[[Message], bool] | None = None,
        ack_timeout: float = 0.5,
        backoff_factor: float = 2.0,
        max_retries: int = 4,
        seq_source: SequenceSource | None = None,
        name: str = "arq",
        telemetry: Any = None,
    ) -> None:
        if ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {ack_timeout}")
        if backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {backoff_factor}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._sim = sim
        self._channel = channel
        self._ack_channel = ack_channel if ack_channel is not None else channel
        self._sink = sink
        self._accept = accept
        self._ack_timeout = ack_timeout
        self._backoff_factor = backoff_factor
        self._max_retries = max_retries
        self._ack_seq = seq_source if seq_source is not None else SequenceSource()
        self.name = name
        self.stats = ReliableLinkStats()
        self._pending: dict[int, _Pending] = {}
        self._seen: set[int] = set()
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_retransmits = tm.counter("net.arq.retransmits", link=name)
        self._t_duplicates = tm.counter("net.arq.duplicates", link=name)
        self._t_gave_up = tm.counter("net.arq.gave_up", link=name)
        self._t_delivered = tm.counter("net.arq.delivered", link=name)

    # -- sender side ----------------------------------------------------------
    def send(self, message: Message) -> None:
        """Offer *message* for reliable delivery."""
        if message.seq in self._pending:
            raise ValueError(f"seq {message.seq} is already in flight")
        self.stats.offered += 1
        entry = _Pending(message)
        entry.timeout = self._ack_timeout
        self._pending[message.seq] = entry
        self._transmit(entry)

    def _transmit(self, entry: _Pending) -> None:
        self.stats.transmissions += 1
        entry.attempts += 1
        self._channel.send(entry.message, self._arrive)
        # The loss decision is the channel's; the sender cannot observe it,
        # so the timeout is armed unconditionally (as a real radio would).
        self._sim.schedule_in(
            entry.timeout,
            lambda: self._on_timeout(entry),
            label=f"{self.name}:timeout",
        )

    def _on_timeout(self, entry: _Pending) -> None:
        if entry.done:
            return
        if entry.attempts > self._max_retries:
            entry.done = True
            del self._pending[entry.message.seq]
            self.stats.gave_up += 1
            if self._instrumented:
                self._t_gave_up.inc()
            return
        entry.timeout *= self._backoff_factor
        self.stats.retransmits += 1
        if self._instrumented:
            self._t_retransmits.inc()
        self._transmit(entry)

    def _on_ack(self, message: Message) -> None:
        if not isinstance(message, Ack):
            return
        self.stats.acks_received += 1
        entry = self._pending.pop(message.acked_seq, None)
        if entry is not None:
            entry.done = True

    # -- receiver side --------------------------------------------------------
    def _arrive(self, message: Message) -> None:
        if self._accept is not None and not self._accept(message):
            return
        seq = message.seq
        if seq in self._seen:
            self.stats.duplicates += 1
            if self._instrumented:
                self._t_duplicates.inc()
        else:
            self._seen.add(seq)
            self.stats.delivered += 1
            if self._instrumented:
                self._t_delivered.inc()
            self._sink(message)
        # Ack every arrival, duplicate or not: a duplicate means the
        # previous ack was lost (or is still in flight).
        self.stats.acks_sent += 1
        ack = Ack(
            sender=self.name,
            timestamp=self._sim.now,
            seq=self._ack_seq.take(),
            acked_seq=seq,
        )
        self._ack_channel.send(ack, self._on_ack)

    # -- introspection --------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages sent but neither acked nor abandoned yet."""
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReliableLink({self.name}, in_flight={len(self._pending)}, "
            f"delivered={self.stats.delivered})"
        )
