"""Message types exchanged between MNs, gateways, the ADF and the broker."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar

from repro.geometry import Vec2

__all__ = ["Message", "LocationUpdate", "Ack", "SequenceSource"]

_sequence = itertools.count()


class SequenceSource:
    """A per-run message sequence counter.

    The process-global default sequence keeps ad-hoc ``Message`` construction
    cheap, but its values depend on everything else the process has built —
    a second experiment in the same process sees different seqs, and the
    sweep runner's process reuse makes them scheduling-dependent.  Run-scoped
    components (the harness, the churn and chaos studies, ReliableLink)
    thread one of these instead and pass ``seq=`` explicitly, so a given
    seed reproduces the exact same sequence numbers every time.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._next = start

    def take(self) -> int:
        """Issue the next sequence number."""
        value = self._next
        self._next = value + 1
        return value

    @property
    def issued(self) -> int:
        """How many sequence numbers have been issued so far."""
        return self._next

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SequenceSource(next={self._next})"


@dataclass(frozen=True, slots=True)
class Message:
    """Base wireless message.

    ``size_bytes`` feeds bandwidth accounting; ``seq`` is a process-wide
    monotone sequence used to detect reordering in tests.
    """

    sender: str
    timestamp: float
    # _sequence.__next__ directly: the factory runs per message, and a
    # wrapper function would add a frame to every construction.
    seq: int = field(default_factory=_sequence.__next__)

    #: Approximate over-the-air size (headers only for the base class).
    #: A plain class attribute, not a property: bandwidth accounting reads
    #: it once per message per channel, and the size of these types is a
    #: constant.  Subclasses with variable payloads override it as a
    #: property (see DataTransfer).
    size_bytes: ClassVar[int] = 32


@dataclass(frozen=True, slots=True)
class LocationUpdate(Message):
    """An MN's location report.

    Carries the position fix plus the instantaneous velocity (speed and
    heading are what the ADF's classifier and clusterer consume) and the
    region the fix was taken in (for per-region accounting).
    """

    node_id: str = ""
    position: Vec2 = field(default_factory=Vec2.zero)
    velocity: Vec2 = field(default_factory=Vec2.zero)
    region_id: str = ""
    #: Distance threshold the filter applied when forwarding this LU (0 when
    #: unfiltered).  Silence after this LU implies the node stayed within
    #: ``dth`` of ``position`` — the broker's estimator exploits that bound.
    dth: float = 0.0

    # header + node id + 4 floats (position, velocity) + region tag
    size_bytes: ClassVar[int] = 32 + 16 + 4 * 8 + 8

    @property
    def speed(self) -> float:
        """Scalar speed carried by the update."""
        return self.velocity.norm()

    @property
    def direction(self) -> float:
        """Heading carried by the update (radians)."""
        return self.velocity.angle()


@dataclass(frozen=True, slots=True)
class Ack(Message):
    """Acknowledgement of a received message (by seq)."""

    acked_seq: int = -1

    size_bytes: ClassVar[int] = 32 + 8


@dataclass(frozen=True, slots=True)
class DataTransfer(Message):
    """A chunk of grid task data (input staging or output collection).

    Task data shares the constrained wireless links with location updates
    — which is why reducing LU traffic buys the grid real throughput (see
    the staging study).
    """

    task_id: int = -1
    payload_bytes: int = 0
    #: "input" (broker -> node) or "output" (node -> broker).
    direction: str = "input"

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be >= 0, got {self.payload_bytes}"
            )
        if self.direction not in ("input", "output"):
            raise ValueError(f"direction must be input/output, got {self.direction!r}")

    @property
    def size_bytes(self) -> int:
        return 32 + 16 + self.payload_bytes
