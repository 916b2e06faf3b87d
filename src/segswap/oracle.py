"""Exact centralized optimum for small instances by exhaustive search over
GT-compliant activation orders, plus the closed-form aggregate bound.

The witness is the move path to the first optimal terminal in depth-first
order.  The memoized search stops as soon as a terminal state reaches the
bound n*m - (m mod 2), which certifies alpha* (the simplest case of branch
and bound); only instances whose optimum lies below it are searched in full.
`states_explored` counts the states expanded up to that point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import gt_pairs
from .model import Instance, InvalidParameterError


class BudgetExceededError(RuntimeError):
    """The state-space search passed its configured exploration cap."""


@dataclass(frozen=True)
class OracleResult:
    alpha_star: int
    witness: tuple[tuple[int, int], ...]
    states_explored: int


def aggregate_upper_bound(m: int, n: int) -> int:
    """n*m - (m mod 2): no GT-free terminal profile can beat this, provided
    no initial set is already full (the paper's assumption A2: nonempty
    proper initial sets).

    Why: an exchange gives both sides the same union, so it makes both full
    or neither, and a full node has no GT partner; the number of full nodes
    therefore keeps its parity.  Under A2 it starts at 0, so with m odd
    some node ends short of a segment.  Without A2 the bound can fail: an
    odd number of initially full nodes can make n*m reachable at odd m
    (`Instance.build(2, [[0, 1], [0], [1]])` reaches 6 > 5).

    `optimal_aggregate` still stops at this bound on any instance, exactly:
    for even m it is n*m, the most any profile holds; for odd m a terminal
    at n*m - 1 has m - 1 full nodes, an even count, so an even number
    started full and n*m is unreachable.
    """
    if m < 2:
        raise InvalidParameterError(f"need m >= 2, got {m}")
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    return n * m - (m % 2)


def _moves(masks: tuple[int, ...]):
    """Each GT exchange available from `masks`, in `gt_pairs` order, as the
    pair (i, j) and the masks after both sides take the union."""
    for i, j in gt_pairs(masks):
        child = list(masks)
        child[i] = child[j] = masks[i] | masks[j]
        yield (i, j), tuple(child)


class _BoundReached(Exception):
    """Unwinds the memoized search from a terminal state at the bound."""


def optimal_aggregate(
    inst: Instance, max_states: int = 2_000_000, memoize: bool = True
) -> OracleResult:
    """Best reachable terminal aggregate cardinality over all orders of
    GT-compliant exchanges (SAP is ignored: the oracle models pure exchange).

    Both searches go depth first, visit children in `gt_pairs` order and
    keep the first terminal state whose aggregate is strictly larger than
    the best so far; the witness is the move path that reached it.  The
    memoized search keys states on the sorted tuple of masks (node identity
    beyond set content does not change reachable aggregates, a claim the
    test suite checks against the unmemoized search rather than assumes),
    collapses each state's children onto that key and skips keys in its
    visited set.  Every exchange grows the aggregate, so no state reaches
    itself and the set only drops repeats.  For m >= 2 it stops at the
    first terminal state that reaches `aggregate_upper_bound` (see its
    docstring for why that is exact).  `memoize = False` explores the plain
    tree in full, for exactly that cross-check.

    `states_explored` counts the states expanded (tree nodes, when
    unmemoized), up to the stop.  Raises BudgetExceededError once it
    passes `max_states`.
    """
    masks0 = tuple(s.mask for s in inst.initial_sets)
    if memoize:
        bound = aggregate_upper_bound(inst.m, inst.n) if inst.m >= 2 else None
        (alpha, witness), explored = _pruned_search(masks0, bound, max_states)
    else:
        (alpha, witness), explored = _plain_search(masks0, max_states)
    return OracleResult(alpha_star=alpha, witness=witness, states_explored=explored)


def _pruned_search(masks0, bound, max_states):
    """Memoized search stopped at `bound` (None: never stops early):
    ((alpha*, witness), states expanded)."""
    seen: set[tuple[int, ...]] = set()
    path: list[tuple[int, int]] = []
    best = (-1, ())
    explored = 0

    def search(masks: tuple[int, ...], key: tuple[int, ...]) -> None:
        nonlocal best, explored
        explored += 1
        if explored > max_states:
            raise BudgetExceededError(
                f"exceeded {max_states} explored states at aggregate search"
            )
        seen.add(key)
        children: dict[tuple[int, ...], tuple] = {}
        for move, child in _moves(masks):
            children.setdefault(tuple(sorted(child)), (move, child))
        if not children:
            total = sum(mask.bit_count() for mask in masks)
            if total > best[0]:
                best = (total, tuple(path))
                if bound is not None and total >= bound:
                    raise _BoundReached
        for child_key, (move, child) in children.items():
            if child_key not in seen:
                path.append(move)
                search(child, child_key)
                path.pop()

    try:
        search(masks0, tuple(sorted(masks0)))
    except _BoundReached:
        pass
    return best, explored


def _plain_search(masks0, max_states):
    """Unmemoized exhaustive search: ((alpha*, witness), tree nodes explored).
    Distinct moves change distinct pairs of nodes, so no two children repeat."""
    path: list[tuple[int, int]] = []
    best = (-1, ())
    explored = 0

    def search(masks: tuple[int, ...]) -> None:
        nonlocal best, explored
        explored += 1
        if explored > max_states:
            raise BudgetExceededError(
                f"exceeded {max_states} explored states at aggregate search"
            )
        moves = list(_moves(masks))
        if not moves:
            total = sum(mask.bit_count() for mask in masks)
            if total > best[0]:
                best = (total, tuple(path))
        for move, child in moves:
            path.append(move)
            search(child)
            path.pop()

    search(masks0)
    return best, explored
