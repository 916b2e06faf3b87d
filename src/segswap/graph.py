"""Give-and-take exchange algebra: the per-slot exchange graph and
truncated preference lists.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .model import SegmentSet, SlotState, require_probability


class GTViolationError(ValueError):
    """An exchange was attempted between sets that do not satisfy GT."""


def gt_satisfied(a: SegmentSet, b: SegmentSet) -> bool:
    """True iff each set holds at least one segment the other lacks.

    Equivalently: the union is strictly larger than both, i.e. neither set
    contains the other.
    """
    a._check_universe(b)
    u = a.mask | b.mask
    return u != a.mask and u != b.mask


def exchange(a: SegmentSet, b: SegmentSet) -> tuple[SegmentSet, SegmentSet]:
    """Perform a GT-compliant exchange: both sides end up with the union."""
    if not gt_satisfied(a, b):
        raise GTViolationError(f"exchange requires GT: {a} vs {b}")
    u = SegmentSet(a.n, a.mask | b.mask)
    return u, u


@dataclass(frozen=True)
class ExchangeGraph:
    """Symmetric GT adjacency at one slot; neighbor lists are id-sorted."""

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def is_empty(self) -> bool:
        return all(not row for row in self.adjacency)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]


def gt_pairs(masks: Sequence[int]) -> list[tuple[int, int]]:
    """Every pair i < j of bitmasks that satisfies GT, in lexicographic order."""
    m = len(masks)
    out = []
    for i in range(m):
        a = masks[i]
        for j in range(i + 1, m):
            u = a | masks[j]
            if u != a and u != masks[j]:
                out.append((i, j))
    return out


def build_exchange_graph(state: SlotState) -> ExchangeGraph:
    rows: list[list[int]] = [[] for _ in state.sets]
    for i, j in gt_pairs([s.mask for s in state.sets]):
        rows[i].append(j)
        rows[j].append(i)
    return ExchangeGraph(adjacency=tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class PreferenceList:
    """i's GT neighbour ids, best first: by descending gain, ties by
    ascending id, truncated to max(1, floor(pef * |l_i|)) entries."""

    ranked: tuple[int, ...]


def preference_list(
    i: int, graph: ExchangeGraph, state: SlotState, pef: float
) -> PreferenceList:
    """The gain f(|O_i u O_j|) - f(|O_i|), for any strictly increasing f,
    orders neighbours as |O_i u O_j| does, so they are ranked by union size."""
    require_probability(pef, "pef")
    mi = state.sets[i].mask
    neighbors = graph.neighbors(i)
    ranked = sorted(neighbors, key=lambda j: (-(mi | state.sets[j].mask).bit_count(), j))
    limit = max(1, math.floor(pef * len(neighbors)))
    return PreferenceList(ranked=tuple(ranked[:limit]))
