"""Exact centralized optimum for small instances by exhaustive search over
GT-compliant activation orders, plus the closed-form aggregate bound.
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
    """n*m - (m mod 2): no GT-free terminal profile can beat this."""
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


def optimal_aggregate(
    inst: Instance, max_states: int = 2_000_000, memoize: bool = True
) -> OracleResult:
    """Best reachable terminal aggregate cardinality over all orders of
    GT-compliant exchanges (SAP is ignored: the oracle models pure exchange).

    States are memoized on the sorted tuple of masks: node identity beyond
    set content does not change reachable aggregates (a claim the test suite
    checks against the unmemoized search rather than assumes).  `memoize =
    False` explores the plain tree, for exactly that cross-check.

    Raises BudgetExceededError once more than `max_states` distinct states
    (or tree nodes, when unmemoized) have been explored.
    """
    masks0 = tuple(s.mask for s in inst.initial_sets)
    memo: dict[tuple[int, ...], int] = {}
    explored = 0

    def search(masks: tuple[int, ...]) -> int:
        nonlocal explored
        key = tuple(sorted(masks)) if memoize else None
        if memoize and key in memo:
            return memo[key]
        explored += 1
        if explored > max_states:
            raise BudgetExceededError(
                f"exceeded {max_states} explored states at aggregate search"
            )
        children = {child for _, child in _moves(masks)}
        if children:
            best = max(search(child) for child in children)
        else:
            best = sum(mask.bit_count() for mask in masks)
        if memoize:
            memo[key] = best
        return best

    alpha = search(masks0)

    # Witness reconstruction: greedily follow any branch whose memoized value
    # preserves the optimum, so every state on the path has value alpha.
    # Terminal by construction, so replaying it through `exchange` reproduces
    # alpha_star.
    witness = []
    if memoize:
        masks = masks0
        while moves := list(_moves(masks)):
            for move, child in moves:
                if memo.get(tuple(sorted(child))) == alpha:
                    witness.append(move)
                    masks = child
                    break
            else:  # pragma: no cover - memo covers every child of a visited state
                raise AssertionError("no optimum-preserving branch found")
    else:
        witness = _rebuild_witness(masks0, alpha, max_states)

    return OracleResult(
        alpha_star=alpha, witness=tuple(witness), states_explored=explored
    )


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
