"""Partial stable matching over (possibly truncated) preference lists.

`find_stable_matching` runs a deterministic proposal protocol in the style
of stable-roommates Phase 1, restricted to mutually listed node pairs, for
lists in any order.  It defines a slot's pairs; the simulation engine
computes the same pairs with the sorted-pair scan of
`strategies._stable_pairs`, which relies on lists ranked by union size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import ExchangeGraph, PreferenceList


class InconsistentListsError(ValueError):
    """A preference list names a neighbor without an underlying GT edge."""


@dataclass(frozen=True)
class Matching:
    """Disjoint node pairs plus the leftover unmatched nodes."""

    pairs: frozenset[tuple[int, int]]
    unmatched: frozenset[int]


def find_stable_matching(
    lists: Sequence[PreferenceList], graph: ExchangeGraph | None = None
) -> Matching:
    """Compute a partial stable matching from per-node truncated lists.

    Protocol: one-directional entries (i lists j but j truncated i away) can
    never pair and are pruned first.  Nodes are then processed in ascending
    id order in rounds; each free node proposes down its list; a proposee
    holds the best proposal seen so far (ties keep the lower id, which is
    the list order) and rejects worse ones, a rejection removing the pair
    from both lists.  At the fixpoint, mutually held proposals become pairs.

    When `graph` is given, an entry without a corresponding GT edge raises
    InconsistentListsError; list truncation asymmetry is not an error.
    """
    m = len(lists)
    if graph is not None:
        for i in range(m):
            row = set(graph.neighbors(i))
            for j in lists[i].ranked:
                if j not in row:
                    raise InconsistentListsError(
                        f"node {i} lists {j} but the GT edge ({i},{j}) does not exist"
                    )

    pos = [{j: p for p, j in enumerate(pl.ranked)} for pl in lists]
    order = [[j for j in pl.ranked if i in pos[j]] for i, pl in enumerate(lists)]
    removed: list[set[int]] = [set() for _ in range(m)]
    ptr = [0] * m                           # next entry of i's list to try
    target: list[int | None] = [None] * m   # j currently holding i's proposal
    holder: list[int | None] = [None] * m   # proposer currently held by j

    # A proposer's pointer rests on the node holding its proposal, so a
    # rejection or displacement removes the pair from the proposer's side by
    # stepping its pointer, and from the proposee's side through `removed`.
    progress = True
    while progress:
        progress = False
        for i in range(m):
            if target[i] is not None:
                continue
            row, gone, p = order[i], removed[i], ptr[i]
            while p < len(row):
                j = row[p]
                if j in gone:
                    p += 1
                    continue
                progress = True
                h = holder[j]
                if h is None or pos[j][i] < pos[j][h]:
                    if h is not None:
                        removed[j].add(h)
                        ptr[h] += 1
                        target[h] = None
                    holder[j] = i
                    target[i] = j
                    break
                removed[j].add(i)
                p += 1
            ptr[i] = p

    pairs = {(i, t) for i, t in enumerate(target) if t is not None and i < t and target[t] == i}
    paired = {x for p in pairs for x in p}
    return Matching(pairs=frozenset(pairs), unmatched=frozenset(range(m)) - paired)


def verify_stability(
    lists: Sequence[PreferenceList], matching: Matching
) -> tuple[int, int] | None:
    """Exhaustively scan mutually listed pairs for a blocking pair.

    A pair (i, j) blocks when each is on the other's list and each strictly
    prefers the other (by list position, which encodes gain-descending with
    id tie-break) to its assigned partner, or has no partner.  Returns the
    first blocking pair in (owner id, list order) scan order, or None.
    """
    m = len(lists)
    pos = [{j: p for p, j in enumerate(pl.ranked)} for pl in lists]

    partner: dict[int, int] = {}
    seen: set[int] = set()
    for a, b in matching.pairs:
        for x in (a, b):
            if x in seen:
                raise ValueError(f"node {x} appears in two pairs")
            seen.add(x)
        partner[a], partner[b] = b, a
    overlap = seen & matching.unmatched
    if overlap:
        raise ValueError(f"nodes both paired and unmatched: {sorted(overlap)}")
    if seen | matching.unmatched != set(range(m)):
        raise ValueError("pairs and unmatched do not partition the node set")
    for a, b in matching.pairs:
        if b not in pos[a] or a not in pos[b]:
            raise ValueError(f"pair ({a},{b}) is not mutually listed")

    def strictly_prefers(i: int, j: int) -> bool:
        p = partner.get(i)
        return p is None or pos[i][j] < pos[i][p]

    for i in range(m):
        for j in lists[i].ranked:
            if i not in pos[j]:
                continue
            if strictly_prefers(i, j) and strictly_prefers(j, i):
                return (i, j)
    return None
