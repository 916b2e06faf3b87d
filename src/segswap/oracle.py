"""Exact centralized optimum for small instances by exhaustive search over
GT-compliant activation orders, plus the closed-form aggregate bound.

The memoized search stops as soon as a terminal state reaches the bound
n*m - (m mod 2), which certifies alpha* (the simplest case of branch and
bound); only instances whose optimum lies below it are searched in full.
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

    States are memoized on the sorted tuple of masks: node identity beyond
    set content does not change reachable aggregates (a claim the test suite
    checks against the unmemoized search rather than assumes).  Each
    expanded state collapses its children onto that key and looks the key
    up before descending, visiting them in `gt_pairs` order.  For m >= 2
    the search stops at the first terminal state that reaches
    `aggregate_upper_bound` (see its docstring for why that is exact): alpha*
    is then the bound and the witness is the path that reached it.
    Otherwise the search runs in full and the witness is rebuilt from the
    memo.  `memoize = False` explores the plain tree in full, for exactly
    that cross-check.

    `states_explored` counts the states expanded (tree nodes, when
    unmemoized), up to the stop.  Raises BudgetExceededError once it
    passes `max_states`.
    """
    masks0 = tuple(s.mask for s in inst.initial_sets)
    if memoize:
        bound = aggregate_upper_bound(inst.m, inst.n) if inst.m >= 2 else None
        alpha, witness, explored = _pruned_search(masks0, bound, max_states)
    else:
        alpha, explored = _plain_search(masks0, max_states)
        witness = _rebuild_witness(masks0, alpha, max_states)
    return OracleResult(
        alpha_star=alpha, witness=tuple(witness), states_explored=explored
    )


def _pruned_search(masks0, bound, max_states):
    """Memoized search stopped at `bound` (None: never stops early):
    (alpha*, witness, states expanded)."""
    memo: dict[tuple[int, ...], int] = {}
    path: list[tuple[int, int]] = []
    explored = 0

    def search(masks: tuple[int, ...], key: tuple[int, ...]) -> int:
        nonlocal explored
        explored += 1
        if explored > max_states:
            raise BudgetExceededError(
                f"exceeded {max_states} explored states at aggregate search"
            )
        children: dict[tuple[int, ...], tuple] = {}
        for move, child in _moves(masks):
            children.setdefault(tuple(sorted(child)), (move, child))
        if not children:
            best = sum(mask.bit_count() for mask in masks)
            if bound is not None and best >= bound:
                raise _BoundReached(best)
        else:
            best = 0
            for child_key, (move, child) in children.items():
                value = memo.get(child_key)
                if value is None:
                    path.append(move)
                    value = search(child, child_key)
                    path.pop()
                best = max(best, value)
        memo[key] = best
        return best

    try:
        alpha = search(masks0, tuple(sorted(masks0)))
    except _BoundReached as stop:
        # `path` still holds the moves down to the terminal at the bound.
        return stop.args[0], path, explored

    # Witness reconstruction: greedily follow any branch whose memoized value
    # preserves the optimum, so every state on the path has value alpha.
    # Terminal by construction, so replaying it through `exchange` reproduces
    # alpha_star.
    witness = []
    masks = masks0
    while moves := list(_moves(masks)):
        for move, child in moves:
            if memo.get(tuple(sorted(child))) == alpha:
                witness.append(move)
                masks = child
                break
        else:  # pragma: no cover - memo covers every child of a visited state
            raise AssertionError("no optimum-preserving branch found")
    return alpha, witness, explored


def _plain_search(masks0, max_states):
    """Unmemoized exhaustive search: (alpha*, tree nodes explored)."""
    explored = 0

    def search(masks):
        nonlocal explored
        explored += 1
        if explored > max_states:
            raise BudgetExceededError(
                f"exceeded {max_states} explored states at aggregate search"
            )
        children = {child for _, child in _moves(masks)}
        if children:
            return max(search(child) for child in children)
        return sum(mask.bit_count() for mask in masks)

    return search(masks0), explored


def _rebuild_witness(masks0, alpha, max_states):
    """Unmemoized witness: depth-first walk until some terminal hits alpha."""
    budget = [max_states]

    def walk(masks, acc):
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError("witness reconstruction exceeded the budget")
        moves = list(_moves(masks))
        if not moves:
            return acc if sum(mask.bit_count() for mask in masks) == alpha else None
        for move, child in moves:
            found = walk(child, acc + [move])
            if found is not None:
                return found
        return None

    found = walk(masks0, [])
    if found is None:  # pragma: no cover - alpha came from the same tree
        raise AssertionError("optimal terminal state unreachable on replay")
    return found
