import sys
import tracemalloc
from itertools import combinations, product

import pytest

from segswap import harness, model, oracle
from segswap.graph import build_exchange_graph, exchange, gt_pairs, gt_satisfied
from segswap.model import (
    Instance,
    InvalidParameterError,
    SegmentSet,
    SlotState,
    make_instance,
)
from segswap.oracle import (
    BudgetExceededError,
    OracleResult,
    aggregate_upper_bound,
    optimal_aggregate,
    require_search_fits,
)
from segswap.strategies import ALGORITHMS, run_simulation

from conftest import every_pair_oracle, plain_oracle, rand_small_instance, seeded


def replay_witness(inst, result):
    """Apply the witness; every step must satisfy GT and the end state must be
    terminal with aggregate alpha_star."""
    sets = list(inst.initial_sets)
    for i, j in result.witness:
        sets[i], sets[j] = exchange(sets[i], sets[j])
    m = len(sets)
    for a in range(m):
        for b in range(a + 1, m):
            assert not gt_satisfied(sets[a], sets[b])
    assert sum(len(s) for s in sets) == result.alpha_star


def test_aggregate_upper_bound_values():
    assert aggregate_upper_bound(20, 50) == 1000
    assert aggregate_upper_bound(3, 2) == 5
    assert aggregate_upper_bound(5, 5) == 24
    assert aggregate_upper_bound(2, 7) == 14


def test_aggregate_upper_bound_domain():
    with pytest.raises(InvalidParameterError):
        aggregate_upper_bound(1, 5)
    with pytest.raises(InvalidParameterError):
        aggregate_upper_bound(4, 0)


def test_alpha_star_two_nodes():
    res = optimal_aggregate(Instance.build(2, [[0], [1]]))
    assert res.alpha_star == 4
    assert res.witness == ((0, 1),)
    replay_witness(Instance.build(2, [[0], [1]]), res)


def test_alpha_star_three_nodes():
    inst = Instance.build(2, [[0], [1], [0]])
    res = optimal_aggregate(inst)
    assert res.alpha_star == 5 == aggregate_upper_bound(3, 2)
    replay_witness(inst, res)


def test_alpha_star_all_valid_three_node_binary_instances():
    # n=2 leaves {0} and {1} as the only proper nonempty sets; coverage
    # excludes the two uniform profiles, and every survivor reaches 5
    singles = ([0], [1])
    count = 0
    for combo in product(singles, repeat=3):
        if all(c == combo[0] for c in combo):
            continue
        inst = Instance.build(2, list(combo))
        assert optimal_aggregate(inst).alpha_star == 5
        count += 1
    assert count == 6


def test_alpha_star_without_exchanges():
    inst = Instance.build(2, [[0], [0, 1]])
    res = optimal_aggregate(inst)
    assert res.alpha_star == 3
    assert res.witness == ()
    assert res.states_explored == 1


def test_alpha_star_ignores_sap():
    a = optimal_aggregate(Instance.build(3, [[0], [1], [2]], sap=0.0))
    b = optimal_aggregate(Instance.build(3, [[0], [1], [2]], sap=1.0))
    assert a.alpha_star == b.alpha_star


def test_memoized_matches_plain_search():
    rng = seeded(50)
    for _ in range(150):
        inst = rand_small_instance(rng)
        a = optimal_aggregate(inst)
        b = plain_oracle(inst)
        assert a.alpha_star == b.alpha_star
        assert a.states_explored <= b.states_explored
        replay_witness(inst, a)
        replay_witness(inst, b)


def test_bound_stop_matches_exhaustive_search():
    # the draw must hold instances whose optimum lies below the bound (searched
    # in full) as well as ones that reach it (where the search stops early)
    rng = seeded(53)
    below = at = 0
    for _ in range(150):
        inst = rand_small_instance(rng)
        a = optimal_aggregate(inst)
        b = plain_oracle(inst)
        assert a.alpha_star == b.alpha_star
        replay_witness(inst, a)
        replay_witness(inst, b)
        bound = aggregate_upper_bound(inst.m, inst.n)
        assert a.alpha_star <= bound
        below += a.alpha_star < bound
        at += a.alpha_star == bound
    assert below > 0 and at > 0


def random_search_state(rng):
    """Masks for m = 2..9 over n = 1..130 segments: each node's mask is a
    random one, the full mask, a repeat of an earlier node's, or a subset
    or superset of one."""
    m = int(rng.integers(2, 10))
    n = int(rng.integers(1, 131))
    full = (1 << n) - 1
    masks = []
    for _ in range(m):
        bits = int.from_bytes(rng.bytes(17), "little") & full
        kind = int(rng.integers(5)) if masks else 0
        if kind == 1:
            bits = full
        elif kind >= 2:
            earlier = masks[int(rng.integers(len(masks)))]
            bits = (earlier, earlier & bits, earlier | bits)[kind - 2]
        masks.append(bits)
    return n, tuple(masks)


def test_walk_takes_one_move_per_pair_of_distinct_masks():
    # the reference order: every GT pair i < j in lexicographic order,
    # stably sorted by the size of the union, keeping the first node pair of
    # each pair of distinct masks.  Every node pair left out leads, by a
    # union of the same size, to the same sorted key as a pair taken before
    # it, so the visited set would have skipped it.
    rng = seeded(55)
    wide = omitted = 0
    for _ in range(400):
        n, masks = random_search_state(rng)
        every = sorted(gt_pairs(masks), key=lambda p: (masks[p[0]] | masks[p[1]]).bit_count())
        classes, expected = set(), []
        for i, j in every:
            pair = frozenset((masks[i], masks[j]))
            if pair not in classes:
                classes.add(pair)
                expected.append((i, j))
        b = len(masks).bit_length()
        stack = [[masks, oracle._moves(masks, b), 0, None]]
        taken = {}
        while (child := oracle._advance(stack, b, (1 << b) - 1)) is not None:
            i, j = stack[0][3]
            u = masks[i] | masks[j]
            assert child == tuple(u if x in (i, j) else a for x, a in enumerate(masks))
            taken[i, j] = (u.bit_count(), tuple(sorted(child)))
        assert list(taken) == expected and stack == []
        for p, (i, j) in enumerate(every):
            if (i, j) not in taken:
                u = masks[i] | masks[j]
                child = tuple(sorted(u if x in (i, j) else a for x, a in enumerate(masks)))
                assert (u.bit_count(), child) in [taken[q] for q in every[:p] if q in taken]
                omitted += 1
        wide += n > 64
    assert wide > 100 and omitted > 100


def test_one_move_per_pair_of_masks_keeps_every_result():
    # the same search over every node pair gives the same alpha*, witness
    # and states_explored, or the same budget error, with budgets small
    # enough to stop many searches and large enough to finish most
    rng = seeded(56)
    draws = []
    for _ in range(200):
        n, masks = random_search_state(rng)
        draws.append(Instance.build(n, [SegmentSet(n, mask) for mask in masks]))
    for shape, entropy in (((10, 16, 4), 57), ((12, 20, 5), 58)):
        draws += [make_instance(*shape, seeded(entropy, seed)) for seed in range(20)]
    stopped = finished = 0
    for x, inst in enumerate(draws):
        for max_states in (1 + x % 25, 2_000):
            outcomes = []
            for search in (optimal_aggregate, every_pair_oracle):
                try:
                    outcomes.append(search(inst, max_states=max_states))
                except BudgetExceededError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1], (x, max_states)
            stopped += isinstance(outcomes[0], str)
            finished += isinstance(outcomes[0], OracleResult)
    assert stopped > 100 and finished > 100


def first_best_terminal(masks, n, cache):
    """Brute force, kept apart from the oracle: depth first over every GT pair
    i < j, taken by ascending popcount of the pair's union with ties in
    lexicographic order, returning (value, moves) of the first terminal with
    the largest aggregate.  Results are cached on the exact masks, and a
    state stops at the first child that reaches the trivial maximum n*m
    (every node full)."""
    if masks not in cache:
        m = len(masks)
        best = None
        pairs = sorted(
            combinations(range(m), 2),
            key=lambda p: (bin(masks[p[0]] | masks[p[1]]).count("1"), p),
        )
        for i, j in pairs:
            union = masks[i] | masks[j]
            if union in (masks[i], masks[j]):
                continue
            child = list(masks)
            child[i] = child[j] = union
            value, moves = first_best_terminal(tuple(child), n, cache)
            if best is None or value > best[0]:
                best = (value, ((i, j),) + moves)
            if best[0] == n * m:
                break
        if best is None:
            best = (sum(bin(mask).count("1") for mask in masks), ())
        cache[masks] = best
    return cache[masks]


def test_witness_is_first_optimal_terminal():
    # both searches keep the first terminal, in depth-first order over pairs
    # by ascending union size (ties lexicographic), whose aggregate is
    # strictly larger than any before it.  At (3, 6, 2) the sets are
    # disjoint, alpha* lies below the bound and several distinct terminal
    # states reach it, so a memoized search that kept a later one would
    # show here.
    rng = seeded(54)
    draws = [(rand_small_instance(rng), True) for _ in range(300)]
    draws += [(make_instance(3, 6, 2, seeded(seed)), True) for seed in range(20)]
    draws += [(make_instance(6, 10, 3, seeded(seed)), False) for seed in range(20)]
    below = 0
    for inst, plain in draws:
        masks = tuple(s.mask for s in inst.initial_sets)
        expected = first_best_terminal(masks, inst.n, {})
        a = optimal_aggregate(inst)
        assert (a.alpha_star, a.witness) == expected
        if plain:  # the unmemoized tree at m = 6 exceeds the default budget
            b = plain_oracle(inst)
            assert (b.alpha_star, b.witness) == expected
        below += a.alpha_star < aggregate_upper_bound(inst.m, inst.n)
    assert below > 0


def test_bound_stop_fires():
    bound = aggregate_upper_bound(6, 10)
    for seed in range(20):
        inst = make_instance(6, 10, 3, seeded(seed))
        res = optimal_aggregate(inst)
        assert res.alpha_star == bound
        assert res.states_explored <= 1_000
        replay_witness(inst, res)


def test_ascending_union_order_reaches_the_bound_quickly():
    # in lexicographic gt_pairs order 29 of these 30 instances pass 1,000
    # states before the bound stop fires
    bound = aggregate_upper_bound(10, 16)
    for seed in range(30):
        inst = make_instance(10, 16, 4, seeded(seed))
        res = optimal_aggregate(inst, max_states=1_000)
        assert res.alpha_star == bound
        replay_witness(inst, res)


def test_long_move_path_does_not_recurse():
    # the witness here is 131 moves long, more than the 50 frames of
    # headroom left below the lowered recursion limit.  The limit is not an
    # attribute monkeypatch can set, so `finally` restores it.
    inst = make_instance(40, 30, 5, seeded(1))
    expected = optimal_aggregate(inst)
    assert len(expected.witness) > 100
    # it went straight down, so the plain search, which walks in the same
    # order, reaches the same depth before it first backtracks
    assert expected.states_explored == len(expected.witness) + 1

    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        assert optimal_aggregate(inst) == expected
        # the unmemoized tree is far too large to finish; it must fail on its
        # budget, not on the recursion limit
        with pytest.raises(BudgetExceededError):
            plain_oracle(inst, max_states=len(expected.witness) + 10)
    finally:
        sys.setrecursionlimit(limit)


def test_one_node_instance_outside_a2():
    # m = 1 has no bound (aggregate_upper_bound rejects it); the search must
    # not consult it
    inst = Instance.build(2, [[0, 1]])
    res = optimal_aggregate(inst)
    assert res.alpha_star == 2
    assert res.witness == ()
    assert res.states_explored == 1


def test_initially_full_node_can_beat_the_bound():
    # one full node breaks A2: the other two fill up and alpha* = 6 > 5
    inst = Instance.build(2, [[0, 1], [0], [1]])
    assert aggregate_upper_bound(3, 2) == 5
    for search in (optimal_aggregate, plain_oracle):
        res = search(inst)
        assert res.alpha_star == 6
        replay_witness(inst, res)


def test_bound_stop_is_exact_with_full_initial_sets():
    # every covering profile, full sets allowed: the parity argument in
    # aggregate_upper_bound makes the stop exact even where alpha* > bound
    above = 0
    for m, n in [(3, 2), (3, 3), (4, 2), (4, 3)]:
        full = (1 << n) - 1
        for combo in product(range(1, full + 1), repeat=m):
            union = 0
            for mask in combo:
                union |= mask
            if union != full:
                continue
            inst = Instance.build(n, [SegmentSet(n, mask) for mask in combo])
            a = optimal_aggregate(inst)
            b = plain_oracle(inst)
            assert a.alpha_star == b.alpha_star, combo
            replay_witness(inst, a)
            above += a.alpha_star > aggregate_upper_bound(m, n)
    assert above > 0


def test_alpha_star_bounds_every_algorithm():
    rng = seeded(51)
    for _ in range(100):
        inst = rand_small_instance(rng)
        res = optimal_aggregate(inst)
        start = sum(len(s) for s in inst.initial_sets)
        assert start <= res.alpha_star <= aggregate_upper_bound(inst.m, inst.n)
        for algorithm in ALGORITHMS:
            tr = run_simulation(inst, algorithm, seed=9)
            assert tr.aggregate() <= res.alpha_star


def test_witness_is_deterministic():
    inst = Instance.build(3, [[0], [1], [2]])
    a = optimal_aggregate(inst)
    b = optimal_aggregate(inst)
    assert a == b


def test_budget_cap():
    inst = Instance.build(3, [[0], [1], [2]])
    with pytest.raises(BudgetExceededError):
        optimal_aggregate(inst, max_states=1)
    with pytest.raises(BudgetExceededError):
        plain_oracle(inst, max_states=1)
    # a sufficient budget succeeds and reports how much it used
    res = optimal_aggregate(inst, max_states=10_000)
    assert 0 < res.states_explored <= 10_000


def test_search_too_large_is_refused_before_it_starts(monkeypatch):
    """The estimate charges the move lists on the path and one visited key
    per state.  At (100,40,5) the default 2,000,000 states may hold
    617,760,000 bytes of move lists (1,950 levels of 4,950 moves) and
    2,000,000,000 of visited keys (1,000 bytes each): refused, where
    400,000 states fit.  At (400,100,5), 3,000 states may hold 3,000
    levels of 79,800 moves, 14.3 GiB.  Both are refused before any search;
    the harness's oracle shapes fit at the default max_states."""
    require_search_fits(100, 40, 400_000)
    require_search_fits(harness.ORACLE_MAX_M, harness.ORACLE_MAX_N, 2_000_000)
    searches = []
    monkeypatch.setattr(oracle, "_pruned_search", lambda *args: searches.append(args))
    for shape, max_states, mib in (((100, 40, 5), 2_000_000, 2497), ((400, 100, 5), 3000, 14622)):
        inst = make_instance(*shape, seeded(1))
        with pytest.raises(InvalidParameterError, match=f"visited set .* may hold {mib} MiB"):
            optimal_aggregate(inst, max_states=max_states)
    assert searches == []


@pytest.mark.parametrize("shape", [(8, 12, 3), (12, 20, 5)])
def test_search_peaks_within_its_estimate(monkeypatch, shape):
    """A search with no bound stop that expands 5,000 states peaks under
    tracemalloc above what its move lists are charged, since its visited
    set has grown past them, and within the whole estimate of
    `require_search_fits`."""
    m, n, _ = shape
    inst = make_instance(*shape, seeded(3))
    masks0 = tuple(s.mask for s in inst.initial_sets)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            oracle._pruned_search(masks0, None, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak > (n - 1) * m // 2 * (m * (m - 1) // 2) * 64
    monkeypatch.setattr(model, "MAX_BYTES", peak - 1)
    with pytest.raises(InvalidParameterError):
        require_search_fits(m, n, 5000)


def test_terminal_states_have_empty_graph():
    rng = seeded(52)
    for _ in range(50):
        inst = rand_small_instance(rng)
        res = optimal_aggregate(inst)
        sets = list(inst.initial_sets)
        for i, j in res.witness:
            sets[i], sets[j] = exchange(sets[i], sets[j])
        state = SlotState(slot=1, sets=sets, downloads=[0] * inst.m)
        assert build_exchange_graph(state).is_empty
