"""Exact centralized optimum for small instances by exhaustive search over
GT-compliant activation orders, plus the closed-form aggregate bound.

The search goes depth first and tries a state's exchanges (i, j), i < j, by
ascending size of the pair's union, ties by i and then j: `_moves` lists
them as sorted int keys that encode the three, one per pair of distinct
masks.  Nodes that hold equal sets are interchangeable: every node pair
across two mask classes ends with the same union and leads to a
permutation of the same child, which has one sorted key.  The first of
those node pairs, the classes' lowest node ids, stands for them all; the
others would reach a key already in the visited set and be skipped
uncounted, so dropping them changes neither alpha*, the witness nor
`states_explored`.  The witness is the move path to the first optimal
terminal in that order.  The search stops as soon as a terminal state
reaches the bound n*m - (m mod 2), which certifies alpha* (the simplest
case of branch and bound); only instances whose optimum lies below it are
searched in full.  The order only decides how soon the stop fires, never
alpha*; small merges first (a heuristic: they probably keep more GT
partners open) reach the bound within a few states on most instances.
`states_explored` counts the states expanded up to the stop.
The test suite checks both shortcuts, the move per pair of masks and the
visited set, against an unmemoized search over every node pair.  The walk
keeps one explicit stack (`_advance`), so a long move path does not hit
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, require_bytes, require_int


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
    m = require_int(m, "m", lo=2)
    n = require_int(n, "n", lo=1)
    return n * m - (m % 2)


def require_search_fits(m: int, n: int, max_states: int) -> None:
    """Raise InvalidParameterError if the search's move lists and visited
    set may pass the memory budget, `model.MAX_BYTES`.

    Each state on the current path keeps its sorted list of moves, one per
    pair of distinct masks: at most m(m-1)/2, fewer once nodes hold equal
    sets, so the estimate is an upper bound.  Each move is charged 64
    bytes: an int key (`_moves`) and its list slot held 40.4 bytes per move
    under tracemalloc, and 41-47 while the list was sorted, at m = 20 and
    100 with n from 40 to 70,000.  The path is at most
    min(max_states, (n-1)*m/2) states long: the aggregate starts at m or
    more, ends at n*m or less, and every exchange adds at least 2 to it.
    A lower max_states shortens the longest path the search may hold.

    Each expanded state adds one key to the visited set, and up to
    max_states are expanded.  A key is charged 8m + 192 + 4*ceil(n/30)
    bytes: its sorted tuple of m pointers (40 + 8m), its set slot (128: a
    table of 16-byte slots is at least 30% full once grown, and the old
    table is held while it is resized) and the one new union int of the
    move that led to it (24 + 4 bytes per 30-bit digit of up to n bits).
    Under tracemalloc, searches with no bound stop, at m = 8 to 60 and n =
    12 to 1,000 with 1,000 to 100,000 states, all peaked below this
    estimate; at (20,50,6) they held 273 to 320 bytes per expanded state in
    all, against the 360 charged.
    """
    levels = min(max_states, (n - 1) * m // 2)
    moves = levels * (m * (m - 1) // 2) * 64
    visited = max_states * (8 * m + 192 + 4 * -(-n // 30))
    require_bytes(
        moves + visited,
        f"the move lists and visited set of an oracle search at m={m}, n={n}, "
        f"max_states={max_states}",
    )


def _moves(masks: tuple[int, ...], b: int) -> list[int]:
    """The GT exchanges available from `masks`, one per pair of distinct
    masks, as sorted int keys |O_i u O_j| << 2b | i << b | j, where i < j
    are the lowest node ids that hold the two masks and b is
    len(masks).bit_length().  Ascending keys go by ascending size of the
    union the pair ends with, then i, then j (the order of
    `strategies._int_edges` with the union's size in place of n minus it).
    Every node pair across the two masks' classes ends with the same union
    and leads to a permutation of one child, and (i, j) is the first of
    them in that order."""
    first: dict[int, int] = {}  # mask -> lowest node id holding it
    out = []
    for j, c in enumerate(masks):
        if c in first:
            continue
        for a, i in first.items():
            u = a | c
            if u != a and u != c:
                out.append(u.bit_count() << 2 * b | i << b | j)
        first[c] = j
    out.sort()
    return out


def optimal_aggregate(inst: Instance, max_states: int = 2_000_000) -> OracleResult:
    """Best reachable terminal aggregate cardinality over all orders of
    GT-compliant exchanges (SAP is ignored: the oracle models pure exchange).

    The search goes depth first, tries each state's exchanges by ascending
    size of the pair's union (ties by i, then j) and keeps the first
    terminal state whose aggregate is strictly larger than the best so far;
    the witness is the move path that reached it.  It keys states on the
    sorted tuple of masks (node identity beyond set content does not change
    reachable aggregates, a claim the test suite checks against an
    unmemoized search rather than assumes) and skips a child whose key is in
    its visited set, computing that key only when the walk reaches the
    child.  Node pairs across the same two sets lead to one key, so only
    the first of them is tried (see `_moves`).  Every exchange grows the
    aggregate, so no state reaches itself and the set only drops repeats.
    For m >= 2 it stops at the first terminal state that reaches
    `aggregate_upper_bound` (see its docstring for why that is exact); the
    order decides only how soon that happens.

    `states_explored` counts the states expanded, up to the stop.
    `max_states` must be an integer >= 1; raises BudgetExceededError once
    the search passes it.  A shape whose search may pass the memory budget
    (`require_search_fits`) is refused before the search.
    """
    max_states = require_int(max_states, "max_states", lo=1)
    require_search_fits(inst.m, inst.n, max_states)
    masks0 = tuple(s.mask for s in inst.initial_sets)
    bound = aggregate_upper_bound(inst.m, inst.n) if inst.m >= 2 else None
    (alpha, witness), explored = _pruned_search(masks0, bound, max_states)
    return OracleResult(alpha_star=alpha, witness=witness, states_explored=explored)


def _pruned_search(masks0, bound, max_states):
    """Memoized search stopped at `bound` (None: never stops early):
    ((alpha*, witness), states expanded).

    A child's masks and key are computed only when the walk takes its move.
    A later sibling with the same key as an earlier one is in `seen` by
    then, so each key is expanded once."""
    b = len(masks0).bit_length()  # the width of a node id in a move key
    low = (1 << b) - 1
    seen: set[tuple[int, ...]] = set()
    stack = []  # see `_advance`
    best = (-1, ())
    explored = 0
    masks = masks0
    while masks is not None:
        key = tuple(sorted(masks))
        if key not in seen:
            explored += 1
            if explored > max_states:
                raise BudgetExceededError(
                    f"exceeded {max_states} explored states at aggregate search"
                )
            seen.add(key)
            moves = _moves(masks, b)
            if moves:
                stack.append([masks, moves, 0, None])
            else:
                total = sum(mask.bit_count() for mask in masks)
                if total > best[0]:
                    best = (total, _path(stack))
                    if bound is not None and total >= bound:
                        return best, explored
        masks = _advance(stack, b, low)
    return best, explored


def _advance(stack, b, low):
    """Takes the next move of the deepest state on `stack` that has one
    left and returns the masks it leads to (None once the walk is over),
    popping the states whose moves are exhausted.

    `stack` holds [masks, moves, index of the next move, the move (i, j)
    last taken] for each state on the path from the first one, with the
    `_moves` keys of that state; `b` is their node-id width and `low` is
    (1 << b) - 1."""
    while stack:
        frame = stack[-1]
        masks, moves, x, _ = frame
        if x < len(moves):
            key = moves[x]
            i = key >> b & low
            j = key & low
            frame[2] = x + 1
            frame[3] = (i, j)
            child = list(masks)
            child[i] = child[j] = masks[i] | masks[j]
            return tuple(child)
        stack.pop()
    return None


def _path(stack):
    """The moves (i, j) from the first state on `stack` (see `_advance`) to
    the state its last move led to."""
    return tuple(frame[3] for frame in stack)
