"""Struct-of-arrays node state.

One :class:`ColumnarNodeState` holds the whole population: position,
velocity and mobility pattern, each as one contiguous float64 (or int8)
column.

Node ids of a generated population are :class:`BlockNodeIds`: derived
from the row index on access instead of held as a million strings.
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from typing import TYPE_CHECKING, overload

import numpy as np

from repro.mobility.states import MobilityState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mobility.node import MobileNode

__all__ = [
    "PATTERN_CODES",
    "PATTERN_FROM_CODE",
    "NO_PATTERN",
    "BlockNodeIds",
    "ColumnarNodeState",
]

#: Integer codes for the pattern column (``NO_PATTERN`` = unknown).
NO_PATTERN = -1
PATTERN_CODES: dict[MobilityState, int] = {
    MobilityState.STOP: 0,
    MobilityState.RANDOM: 1,
    MobilityState.LINEAR: 2,
}
PATTERN_FROM_CODE: dict[int, MobilityState | None] = {
    NO_PATTERN: None,
    **{code: state for state, code in PATTERN_CODES.items()},
}


class BlockNodeIds(Sequence[str]):
    """Node ids laid out in contiguous blocks, derived from the row index.

    Block ``b`` names its ``count`` rows ``f"{prefix}{i:06d}"`` for ``i``
    in ``range(count)``, and the blocks follow each other in row order.
    No prefix ends in a digit, so an id splits back into its prefix and
    its number in one way only: the ids are unique exactly when the
    prefixes of the non-empty blocks are (:meth:`unique`).
    """

    __slots__ = ("_prefixes", "_starts", "_n")

    def __init__(self, blocks: Iterable[tuple[str, int]]) -> None:
        self._prefixes: list[str] = []
        self._starts: list[int] = []
        n = 0
        for prefix, count in blocks:
            if prefix[-1:].isdigit():
                raise ValueError(f"id prefix {prefix!r} ends in a digit")
            if count > 0:
                self._prefixes.append(prefix)
                self._starts.append(n)
                n += count
        self._n = n

    def unique(self) -> bool:
        """Whether no two rows share an id."""
        return len(set(self._prefixes)) == len(self._prefixes)

    def __len__(self) -> int:
        return self._n

    @overload
    def __getitem__(self, index: int) -> str: ...

    @overload
    def __getitem__(self, index: slice) -> list[str]: ...

    def __getitem__(self, index: int | slice) -> str | list[str]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("node index out of range")
        block = bisect.bisect_right(self._starts, i) - 1
        return f"{self._prefixes[block]}{i - self._starts[block]:06d}"

    def __iter__(self) -> Iterator[str]:
        ends = self._starts[1:] + [self._n]
        for prefix, start, end in zip(self._prefixes, self._starts, ends):
            for i in range(end - start):
                yield f"{prefix}{i:06d}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BlockNodeIds(n={self._n}, blocks={len(self._prefixes)})"


class ColumnarNodeState:
    """Columnar node state: one numpy column per field, one row per node."""

    def __init__(self, node_ids: Sequence[str]) -> None:
        if isinstance(node_ids, BlockNodeIds):
            unique = node_ids.unique()
        else:
            node_ids = tuple(node_ids)
            unique = len(set(node_ids)) == len(node_ids)
        if not unique:
            raise ValueError("node ids must be unique")
        self.node_ids: Sequence[str] = node_ids
        n = len(node_ids)
        self.n = n
        self.x = np.zeros(n, dtype=np.float64)
        self.y = np.zeros(n, dtype=np.float64)
        self.vx = np.zeros(n, dtype=np.float64)
        self.vy = np.zeros(n, dtype=np.float64)
        self.pattern = np.full(n, NO_PATTERN, dtype=np.int8)

    # -- conversions ---------------------------------------------------------
    @classmethod
    def from_nodes(cls, nodes: "list[MobileNode]") -> "ColumnarNodeState":
        """Seed columnar state from live mobility objects."""
        state = cls([node.node_id for node in nodes])
        for i, node in enumerate(nodes):
            position = node.position
            velocity = node.velocity
            state.x[i] = position.x
            state.y[i] = position.y
            state.vx[i] = velocity.x
            state.vy[i] = velocity.y
            true_state = node.true_state
            if true_state is not None:
                state.pattern[i] = PATTERN_CODES[true_state]
        return state

    @cached_property
    def index_of(self) -> dict[str, int]:
        """Row index of every node id, built on first use."""
        return {nid: i for i, nid in enumerate(self.node_ids)}

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnarNodeState(n={self.n})"
