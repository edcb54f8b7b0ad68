"""Traffic accounting: the measurement side of every figure in the paper.

A :class:`TrafficMeter` counts messages with their timestamps and region
tags, then answers the three questions the evaluation asks:

* LUs per second over time (Fig. 4);
* accumulated LUs over the run (Fig. 5);
* totals per region / per region *kind* (Fig. 6).

Two retention modes exist.  The default (*exact*) keeps every event,
which is what tests want but grows without bound on long runs.  Passing
``bin_width`` switches to *binned* mode: events collapse into fixed-width
time-bin counters at :meth:`count` time, bounding memory at one integer
per bin regardless of traffic volume.  ``per_second`` then serves any
bin width that is an integer multiple of the retention width.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.util.timeseries import TimeSeries

__all__ = ["TrafficMeter"]


class TrafficMeter:
    """Counts timestamped, region-tagged message events."""

    def __init__(self, name: str = "traffic", *, bin_width: float | None = None) -> None:
        if bin_width is not None and bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {bin_width}")
        self.name = name
        self._bin_width = bin_width
        self._events: list[tuple[float, str]] = []
        self._bins: Counter[int] = Counter()
        self._total = 0
        self._per_region: Counter[str] = Counter()
        self._per_node: Counter[str] = Counter()
        # (node ids, counts) arrays from add_counts, folded into _per_node
        # on first read: a 1M-node run never pays for a dict nobody reads.
        self._node_counts: list[tuple[Sequence[str], np.ndarray]] = []
        self._bytes = 0

    @property
    def bin_width(self) -> float | None:
        """Retention bin width (``None`` = exact per-event retention)."""
        return self._bin_width

    def count(
        self,
        time: float,
        region_id: str,
        *,
        size_bytes: int = 0,
        node_id: str = "",
    ) -> None:
        """Record one message at *time* attributed to *region_id*.

        Passing *node_id* additionally maintains per-node totals, which the
        energy analysis uses to charge each device's battery for its own
        transmissions.
        """
        width = self._bin_width
        if width is None:
            self._events.append((time, region_id))
        else:
            # Right-closed bins, matching TimeSeries.bin_sum: bin i covers
            # (i*w, (i+1)*w], with t = 0 joining bin 0.
            index = math.ceil(time / width) - 1
            self._bins[index if index > 0 else 0] += 1
        self._total += 1
        self._per_region[region_id] += 1
        if node_id:
            self._fold_node_counts()
            self._per_node[node_id] += 1
        self._bytes += size_bytes

    def add_counts(
        self,
        *,
        messages: int,
        total_bytes: int = 0,
        per_region: dict[str, int] | None = None,
        node_counts: tuple[Sequence[str], np.ndarray] | None = None,
        bins: dict[int, int] | None = None,
        events: list[tuple[float, str]] | None = None,
    ) -> None:
        """Merge pre-aggregated counts into the meter.

        The columnar engine accumulates whole-population traffic in arrays
        and folds the totals in once at collection time; *bins* applies in
        binned retention mode (keyed by bin index), *events* in exact mode.

        *node_counts* is ``(node_ids, counts)`` with one count per id.  The
        meter keeps both by reference (the caller must not mutate them
        afterwards) and folds the nonzero rows into its per-node totals,
        in id order, when they are first read, so a caller that never
        reads them never builds the per-node dict.
        """
        if messages < 0 or total_bytes < 0:
            raise ValueError("counts must be >= 0")
        self._total += messages
        self._bytes += total_bytes
        if per_region:
            self._per_region.update(per_region)
        if node_counts is not None:
            node_ids, counts = node_counts
            if len(node_ids) != len(counts):
                raise ValueError(
                    f"{len(node_ids)} node ids for {len(counts)} counts"
                )
            self._node_counts.append((node_ids, counts))
        if self._bin_width is None:
            if events:
                self._events.extend(events)
        elif bins:
            self._bins.update(bins)

    @property
    def total(self) -> int:
        """Total messages counted."""
        return self._total

    @property
    def total_bytes(self) -> int:
        """Total bytes counted."""
        return self._bytes

    def per_region(self) -> dict[str, int]:
        """Message totals keyed by region id."""
        return dict(self._per_region)

    def _fold_node_counts(self) -> None:
        """Merge the pending ``add_counts`` arrays into the per-node totals."""
        for node_ids, counts in self._node_counts:
            rows = np.flatnonzero(counts)
            ids = [node_ids[i] for i in rows.tolist()]
            self._per_node.update(dict(zip(ids, counts[rows].tolist())))
        self._node_counts.clear()

    def per_node(self) -> dict[str, int]:
        """Message totals keyed by node id (only when counted with one)."""
        self._fold_node_counts()
        return dict(self._per_node)

    def node_total(self, node_id: str) -> int:
        """Messages attributed to one node."""
        self._fold_node_counts()
        return self._per_node.get(node_id, 0)

    def region_total(self, region_id: str) -> int:
        """Messages attributed to one region."""
        return self._per_region.get(region_id, 0)

    def total_for_regions(self, region_ids: list[str]) -> int:
        """Messages attributed to any region in *region_ids*."""
        return sum(self._per_region.get(r, 0) for r in region_ids)

    def per_second(self, duration: float, *, bin_width: float = 1.0) -> TimeSeries:
        """Message counts binned into fixed windows over ``[0, duration)``.

        In binned retention mode the requested *bin_width* must be an
        integer multiple of the retention width (events inside a retention
        bin are indistinguishable, so no finer resolution exists).
        """
        if self._bin_width is None:
            raw = TimeSeries()
            for time, _ in sorted(self._events, key=lambda e: e[0]):
                raw.append(time, 1.0)
            return raw.bin_sum(bin_width, duration)
        ratio = bin_width / self._bin_width
        k = round(ratio)
        if k < 1 or abs(ratio - k) > 1e-9:
            raise ValueError(
                f"bin_width {bin_width} is not an integer multiple of the "
                f"retention bin width {self._bin_width}"
            )
        n_bins = math.ceil(duration / bin_width)
        n_base = math.ceil(duration / self._bin_width)
        sums = [0.0] * n_bins
        for index, count in self._bins.items():
            if index >= n_base:
                continue
            big = index // k
            if big < n_bins:
                sums[big] += count
        out = TimeSeries()
        for i in range(n_bins):
            out.append(i * bin_width, sums[i])
        return out

    def accumulated(self, duration: float, *, bin_width: float = 1.0) -> TimeSeries:
        """Running total of messages, sampled once per bin (Fig. 5)."""
        return self.per_second(duration, bin_width=bin_width).cumulative()

    def mean_rate(self, duration: float) -> float:
        """Average messages per second over ``[0, duration)``.

        In binned mode the window edge is resolved at retention-bin
        granularity: every bin starting before *duration* counts in full.
        """
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if self._bin_width is None:
            in_window = sum(1 for t, _ in self._events if 0 <= t < duration)
        else:
            in_window = sum(
                count
                for index, count in self._bins.items()
                if index * self._bin_width < duration
            )
        return in_window / duration

    def __repr__(self) -> str:
        return f"TrafficMeter({self.name}, total={self.total})"
