"""Shared helpers: random states/instances, strictly increasing utilities
and the gain they give, an independent brute-force stability checker (kept
separate from the library's own verify_stability), and the reference
searches the oracle and the randomized engine are checked against.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from segswap import oracle, strategies
from segswap.graph import build_exchange_graph, gt_pairs, preference_list
from segswap.model import Instance, SegmentSet, SlotState, make_instance
from segswap.oracle import BudgetExceededError, OracleResult, _advance, _path
from segswap.strategies import _BLOCK_MAX, _BLOCK_MIN, SlotEvents


# The pair finders `strategies._pairs` chooses among.
FINDERS = ("_int_pairs", "_key_pairs", "_matrix_pairs")


def force_finder(patched, finder):
    """Make `strategies._pairs` take `finder`, one of FINDERS, for every
    slot at every m, through the monkeypatch context `patched`: its two
    thresholds are set so that the rule selects it, and the other two
    finders are set to None, so that a call of either fails."""
    int_max_m, int_max_masks = {
        "_int_pairs": (10**9, 10**9),
        "_key_pairs": (10**9, 0),
        "_matrix_pairs": (0, 0),
    }[finder]
    patched.setattr(strategies, "_INT_MAX_M", int_max_m)
    patched.setattr(strategies, "_INT_MAX_MASKS", int_max_masks)
    for other in FINDERS:
        if other != finder:
            patched.setattr(strategies, other, None)


def random_state(rng, m=None, n=None, max_m=8, max_n=8) -> SlotState:
    """A slot state with arbitrary nonempty sets (full sets allowed), for
    graph/matching properties that do not need A2-valid instances."""
    if m is None:
        m = int(rng.integers(2, max_m + 1))
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    sets = [SegmentSet(n, int(rng.integers(1, 1 << n))) for _ in range(m)]
    return SlotState(slot=1, sets=sets, downloads=[0] * m)


def rand_small_instance(rng):
    """An A2-valid instance with 2-4 nodes over 2-5 segments: sets drawn
    uniformly among the proper nonempty ones until they cover."""
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 6))
    while True:
        sets = [SegmentSet(n, int(rng.integers(1, (1 << n) - 1))) for _ in range(m)]
        union = 0
        for s in sets:
            union |= s.mask
        if union == (1 << n) - 1:
            return Instance.build(n, sets)


def random_valid_instance(rng, max_m=8, max_n=8, sap=0.0, pef=1.0):
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(2, max_n + 1))
    lo = -(-n // m)  # coverage needs m*k >= n
    k = int(rng.integers(max(1, lo), n))
    return make_instance(m, n, k, rng, sap=sap, pef=pef)


# Strictly increasing utilities f of a set's size.  The paper ranks partners
# by the gain f(|O_i u O_j|) - f(|O_i|), which orders them as the union size
# does for every such f; the library ranks by union size and reads no f.
UTILITIES = {
    "cardinality": lambda x: x,
    "sqrt": math.sqrt,
    "log1p": math.log1p,
    "quadratic": lambda x: x * x,
}


def gain(i: int, j: int, state: SlotState, f) -> float:
    """g(i, j) = f(|O_i u O_j|) - f(|O_i|): what i gains by pairing with j."""
    mi = state.sets[i].mask
    return f((mi | state.sets[j].mask).bit_count()) - f(mi.bit_count())


def lists_for(state: SlotState, pef: float):
    graph = build_exchange_graph(state)
    lists = [preference_list(i, graph, state, pef) for i in range(state.m)]
    return graph, lists


def every_node_move(masks, b):
    """Every GT exchange (i, j), i < j, available from `masks`, node pair by
    node pair, as the sorted int keys of `oracle._moves` (which keeps one
    node pair per pair of distinct masks)."""
    m = len(masks)
    out = []
    for i in range(m - 1):
        for j in range(i + 1, m):
            u = masks[i] | masks[j]
            if u != masks[i] and u != masks[j]:
                out.append(u.bit_count() << 2 * b | i << b | j)
    out.sort()
    return out


def plain_oracle(inst, max_states=2_000_000) -> OracleResult:
    """The unmemoized tree over every node pair, searched in full with no
    bound stop, on the oracle's stack (`oracle._advance`): the reference
    `optimal_aggregate` is checked against.  Distinct moves change distinct
    pairs of nodes, so no two children repeat."""
    masks = tuple(s.mask for s in inst.initial_sets)
    b = len(masks).bit_length()
    low = (1 << b) - 1
    stack = []
    best = (-1, ())
    explored = 0
    while masks is not None:
        explored += 1
        if explored > max_states:
            raise BudgetExceededError(f"exceeded {max_states} explored states")
        moves = every_node_move(masks, b)
        if moves:
            stack.append([masks, moves, 0, None])
        else:
            total = sum(mask.bit_count() for mask in masks)
            if total > best[0]:
                best = (total, _path(stack))
        masks = _advance(stack, b, low)
    return OracleResult(alpha_star=best[0], witness=best[1], states_explored=explored)


def every_pair_oracle(inst, max_states=2_000_000) -> OracleResult:
    """`optimal_aggregate`, visited set and bound stop included, trying every
    node pair (`every_node_move`) in place of one per pair of distinct
    masks."""
    with mock.patch.object(oracle, "_moves", every_node_move):
        return oracle.optimal_aggregate(inst, max_states=max_states)


# Rows of picks drawn and checked at a time within a reference block.
REFERENCE_CHUNK = 4096


def reference_live(masks):
    """Which nodes have a GT partner, as a boolean array over the Python-int
    masks `masks`, from `graph.gt_pairs` on each pair of distinct masks
    (nodes with equal masks share their partners)."""
    distinct = set(masks)
    partnered = {x for x in distinct if any(gt_pairs((x, y)) for y in distinct)}
    return np.array([x in partnered for x in masks], dtype=bool)


def reference_apply_block(raw, masks, live):
    """Apply the first slot of the raw picks `raw` in which some mutual pair
    satisfies GT: every such pair (i, j), i < j, exchanges against the
    slot-start sets, and the Python-int masks `masks` are updated in place.
    `live` is `reference_live(masks)`; a pair's GT is read off
    `graph.gt_pairs`.  Returns the slot's index in the block and its pairs,
    or (len(raw), ()) if no slot activates.  One self-contained search per
    block, with no state carried between blocks: the reference the
    randomized engine is checked against."""
    slots, m = raw.shape
    cols = np.flatnonzero(live).astype(np.int32)
    t = raw[:, cols]
    t += t >= cols
    back = raw.ravel()[t + np.arange(0, slots * m, m)[:, None]]
    s, a = np.nonzero(back + (back >= t) == cols)
    first, pairs = len(raw), []
    for row, i, j in zip(s.tolist(), cols[a].tolist(), t[s, a].tolist()):
        if row > first:
            break
        if i < j and gt_pairs([masks[i], masks[j]]):
            first = row
            pairs.append((i, j))
    for i, j in pairs:
        masks[i] = masks[j] = masks[i] | masks[j]
    return first, tuple(pairs)


def reference_run_block(rng, slots, masks, live):
    """`reference_apply_block` over `slots` slots, drawn in chunks of
    `REFERENCE_CHUNK` rows by numpy's own bounded draw, independent of the
    engine's; the chunks after the first activating slot are drawn and
    discarded.  With m = 1 nothing is drawn."""
    m = len(masks)
    if m < 2:
        return slots, ()
    hit = None
    for start in range(0, slots, REFERENCE_CHUNK):
        raw = rng.integers(0, m - 1, size=(min(REFERENCE_CHUNK, slots - start), m), dtype=np.int32)
        if hit is None:
            b, pairs = reference_apply_block(raw, masks, live)
            if pairs:
                hit = start + b, pairs
    return hit or (slots, ())


def reference_randomized(rng, max_slots, masks):
    """The blocked randomized loop with every block searched on its own:
    (events, r_end, truncated), as `strategies._run_randomized` returns them;
    mutates the Python-int masks `masks`.  The run is quiescent when no node
    has a GT partner; a block without an exchange changes no mask."""
    events = []
    r = 1
    block = _BLOCK_MIN
    live = reference_live(masks)
    while True:
        if not live.any():
            return events, r - 1, False
        if r > max_slots:
            return events, max_slots, True
        size = min(block, max_slots - r + 1)
        b, pairs = reference_run_block(rng, size, masks, live)
        if not pairs:
            r += size
            block = min(block * 2, _BLOCK_MAX)
            continue
        events.append((r + b, SlotEvents(activations=pairs, downloads=())))
        r += b + 1
        block = _BLOCK_MIN
        live = reference_live(masks)


def blocking_pairs(lists, pairs) -> list[tuple[int, int]]:
    """Every mutually listed (i, j) where both strictly prefer each other to
    their assigned partner (or are unmatched).  Independent re-derivation."""
    pos = [{j: p for p, j in enumerate(pl.ranked)} for pl in lists]
    partner: dict[int, int] = {}
    for a, b in pairs:
        partner[a], partner[b] = b, a
    out = []
    for i in range(len(lists)):
        for j in pos[i]:
            if j <= i or i not in pos[j]:
                continue
            pi = partner.get(i)
            pj = partner.get(j)
            if (pi is None or pos[i][j] < pos[i][pi]) and (
                pj is None or pos[j][i] < pos[j][pj]
            ):
                out.append((i, j))
    return out


def all_stable_matchings(lists) -> list[frozenset]:
    """Enumerate every pairing over mutually listed edges and keep the stable
    ones.  Exponential; only for small m."""
    m = len(lists)
    pos = [set(pl.ranked) for pl in lists]
    edges = [(i, j) for i in range(m) for j in pos[i] if i < j and i in pos[j]]
    out = []

    def rec(idx, used, chosen):
        if idx == len(edges):
            if not blocking_pairs(lists, chosen):
                out.append(frozenset(chosen))
            return
        rec(idx + 1, used, chosen)
        i, j = edges[idx]
        if i not in used and j not in used:
            rec(idx + 1, used | {i, j}, chosen + [(i, j)])

    rec(0, frozenset(), [])
    return out


def seeded(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))
