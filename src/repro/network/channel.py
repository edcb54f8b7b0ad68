"""A lossy wireless channel with configurable latency.

Delivery is scheduled on the shared simulator: each message experiences an
exponentially-jittered latency and an independent drop probability.  With
the defaults (zero latency, zero loss) the channel is transparent, which is
what the paper's LU-counting experiments assume; the loss/latency knobs
exist for the failure-injection tests and robustness ablations.

Loss comes in two flavours: independent (Bernoulli per message, the
``loss_probability`` knob) and bursty (:class:`GilbertElliottLoss`, a
two-state Markov model whose "bad" state clusters drops the way real
wireless fades do).  Parameters are mutable mid-run via :meth:`configure` /
:meth:`degrade` / :meth:`restore`.  The channel alone derives its
:attr:`~WirelessChannel.transparent` flag (zero latency and jitter, no
loss, no burst model, uninstrumented) and recomputes it on every
parameter change; a gateway reads that one flag to take its fused
delivery path, so an injected fault can never be bypassed by a stale
fast path.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.network.messages import Message
from repro.simkernel import Simulator
from repro.telemetry import NULL_TELEMETRY

__all__ = ["ChannelStats", "GilbertElliottLoss", "WirelessChannel"]


@dataclass
class ChannelStats:
    """Counters accumulated by a channel."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0

    @property
    def loss_rate(self) -> float:
        """Fraction of sent messages that were dropped."""
        return self.dropped / self.sent if self.sent else 0.0


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) burst-loss parameters.

    The channel is either in a *good* or a *bad* state; each transmission
    first draws a state transition, then drops with the state's loss
    probability.  Mean sojourn in the bad state is ``1 / p_bad_good``
    transmissions, so small ``p_bad_good`` makes long loss bursts — the
    regime where plain Bernoulli loss understates the damage to an LU
    stream and where ARQ earns its keep.
    """

    p_good_bad: float = 0.05
    p_bad_good: float = 0.5
    loss_good: float = 0.0
    loss_bad: float = 0.8

    def __post_init__(self) -> None:
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def steady_state_loss(self) -> float:
        """Long-run expected loss rate of the model."""
        denominator = self.p_good_bad + self.p_bad_good
        if denominator <= 0.0:
            return self.loss_good
        p_bad = self.p_good_bad / denominator
        return (1.0 - p_bad) * self.loss_good + p_bad * self.loss_bad


class WirelessChannel:
    """Point-to-point message transport with latency and loss."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        *,
        base_latency: float = 0.0,
        latency_jitter: float = 0.0,
        loss_probability: float = 0.0,
        burst_loss: GilbertElliottLoss | None = None,
        name: str = "channel",
        telemetry: Any = None,
    ) -> None:
        self._sim = sim
        self._rng = rng
        self._validate(base_latency, latency_jitter, loss_probability)
        self._base_latency = base_latency
        self._latency_jitter = latency_jitter
        self._loss_probability = loss_probability
        self._burst = burst_loss
        self._burst_bad = False
        self._saved_params: tuple[float, float, float, GilbertElliottLoss | None] | None = None
        self.name = name
        self.stats = ChannelStats()
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_sent = tm.counter("net.channel.sent", channel=name)
        self._t_delivered = tm.counter("net.channel.delivered", channel=name)
        self._t_dropped = tm.counter("net.channel.dropped", channel=name)
        self._t_latency = tm.histogram("net.channel.delivery_latency")
        self._transparent = self._derive_transparent()

    @staticmethod
    def _validate(
        base_latency: float, latency_jitter: float, loss_probability: float
    ) -> None:
        if base_latency < 0:
            raise ValueError(f"base_latency must be >= 0, got {base_latency}")
        if latency_jitter < 0:
            raise ValueError(f"latency_jitter must be >= 0, got {latency_jitter}")
        if not (0.0 <= loss_probability <= 1.0):
            raise ValueError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )

    def _derive_transparent(self) -> bool:
        return (
            not self._instrumented
            and self._base_latency <= 0
            and self._latency_jitter <= 0
            and self._loss_probability <= 0
            and self._burst is None
        )

    # -- mutable parameters ---------------------------------------------------
    @property
    def transparent(self) -> bool:
        """True when a send always delivers at once and counts nothing else.

        That is: zero latency and jitter, no loss, no burst model and no
        telemetry.  Recomputed on every parameter change.
        """
        return self._transparent

    @property
    def base_latency(self) -> float:
        """Fixed delivery latency in seconds."""
        return self._base_latency

    @property
    def latency_jitter(self) -> float:
        """Mean of the exponential jitter added to the base latency."""
        return self._latency_jitter

    @property
    def loss_probability(self) -> float:
        """Independent (Bernoulli) per-message drop probability."""
        return self._loss_probability

    @property
    def burst_loss(self) -> GilbertElliottLoss | None:
        """The Gilbert–Elliott burst-loss parameters, if bursty loss is on."""
        return self._burst

    @property
    def degraded(self) -> bool:
        """True while :meth:`degrade` parameters are in force."""
        return self._saved_params is not None

    def configure(
        self,
        *,
        base_latency: float | None = None,
        latency_jitter: float | None = None,
        loss_probability: float | None = None,
        burst_loss: GilbertElliottLoss | None | bool = False,
    ) -> None:
        """Change channel parameters mid-run.

        Only the named parameters change; ``burst_loss`` uses ``False`` as
        the "leave alone" sentinel so it can be explicitly cleared with
        ``None``.  Recomputes the :attr:`transparent` flag.
        """
        new_latency = self._base_latency if base_latency is None else base_latency
        new_jitter = self._latency_jitter if latency_jitter is None else latency_jitter
        new_loss = (
            self._loss_probability if loss_probability is None else loss_probability
        )
        self._validate(new_latency, new_jitter, new_loss)
        if burst_loss is not False:
            if burst_loss is not None and not isinstance(
                burst_loss, GilbertElliottLoss
            ):
                raise TypeError(
                    f"burst_loss must be GilbertElliottLoss or None, "
                    f"got {type(burst_loss).__name__}"
                )
            self._burst = burst_loss
            if burst_loss is None:
                self._burst_bad = False
        self._base_latency = new_latency
        self._latency_jitter = new_jitter
        self._loss_probability = new_loss
        self._transparent = self._derive_transparent()

    def degrade(
        self,
        *,
        base_latency: float | None = None,
        latency_jitter: float | None = None,
        loss_probability: float | None = None,
        burst_loss: GilbertElliottLoss | None | bool = False,
    ) -> None:
        """Apply a degradation window; :meth:`restore` reverts it.

        The pre-degradation parameters are saved on the first call; nested
        degradations keep the original save point, so a single restore
        returns to the healthy configuration.  Invalid parameters raise
        before anything changes: the channel stays as it was, undegraded
        if it was healthy.
        """
        saved = (
            self._base_latency,
            self._latency_jitter,
            self._loss_probability,
            self._burst,
        )
        self.configure(
            base_latency=base_latency,
            latency_jitter=latency_jitter,
            loss_probability=loss_probability,
            burst_loss=burst_loss,
        )
        if self._saved_params is None:
            self._saved_params = saved

    def restore(self) -> None:
        """Revert to the parameters saved by the first :meth:`degrade`."""
        if self._saved_params is None:
            return
        latency, jitter, loss, burst = self._saved_params
        self._saved_params = None
        self.configure(
            base_latency=latency,
            latency_jitter=jitter,
            loss_probability=loss,
            burst_loss=burst,
        )

    # -- transmission ---------------------------------------------------------
    def latency_sample(self) -> float:
        """One latency draw: base + exponential jitter."""
        jitter = 0.0
        if self._latency_jitter > 0:
            jitter = float(self._rng.exponential(self._latency_jitter))
        return self._base_latency + jitter

    def _drop_draw(self) -> bool:
        """One loss decision; advances the burst state machine if bursty."""
        burst = self._burst
        if burst is not None:
            if self._burst_bad:
                if burst.p_bad_good > 0 and self._rng.random() < burst.p_bad_good:
                    self._burst_bad = False
            elif burst.p_good_bad > 0 and self._rng.random() < burst.p_good_bad:
                self._burst_bad = True
            loss = burst.loss_bad if self._burst_bad else burst.loss_good
            if loss > 0 and self._rng.random() < loss:
                return True
        if self._loss_probability > 0:
            return bool(self._rng.random() < self._loss_probability)
        return False

    def send(self, message: Message, deliver: Callable[[Message], None]) -> bool:
        """Transmit *message*; *deliver* runs after the latency unless dropped.

        Returns ``True`` when the message was accepted for delivery (it may
        still be in flight), ``False`` when it was dropped.
        """
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += message.size_bytes
        if self._transparent:
            # Transparent-channel fast path (the paper's default): no rng
            # draw, no closure, no event — deliver synchronously.
            stats.delivered += 1
            deliver(message)
            return True
        instrumented = self._instrumented
        if instrumented:
            self._t_sent.inc()
        if (self._burst is not None or self._loss_probability > 0) and self._drop_draw():
            stats.dropped += 1
            if instrumented:
                self._t_dropped.inc()
            return False
        latency = self.latency_sample()

        def arrive() -> None:
            stats.delivered += 1
            if instrumented:
                self._t_delivered.inc()
                self._t_latency.observe(latency)
            deliver(message)

        if latency <= 0:
            arrive()
        else:
            self._sim.schedule_in(latency, arrive, label=f"{self.name}:deliver")
        return True
