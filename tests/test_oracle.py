from itertools import combinations, product

import pytest

from segswap.graph import build_exchange_graph, exchange, gt_satisfied
from segswap.model import (
    Instance,
    InvalidParameterError,
    SegmentSet,
    SlotState,
    make_instance,
)
from segswap.oracle import BudgetExceededError, aggregate_upper_bound, optimal_aggregate
from segswap.strategies import ALGORITHMS, run_simulation

from conftest import seeded


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


def rand_small_instance(rng):
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 6))
    while True:
        sets = [SegmentSet(n, int(rng.integers(1, (1 << n) - 1))) for _ in range(m)]
        union = 0
        for s in sets:
            union |= s.mask
        if union == (1 << n) - 1:
            return Instance.build(n, sets)


def test_memoized_matches_plain_search():
    rng = seeded(50)
    for _ in range(150):
        inst = rand_small_instance(rng)
        a = optimal_aggregate(inst, memoize=True)
        b = optimal_aggregate(inst, memoize=False)
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
        b = optimal_aggregate(inst, memoize=False)
        assert a.alpha_star == b.alpha_star
        replay_witness(inst, a)
        replay_witness(inst, b)
        bound = aggregate_upper_bound(inst.m, inst.n)
        assert a.alpha_star <= bound
        below += a.alpha_star < bound
        at += a.alpha_star == bound
    assert below > 0 and at > 0


def first_best_terminal(masks, n, cache):
    """Brute force, kept apart from the oracle: depth first over every GT pair
    i < j in lexicographic order, returning (value, moves) of the first
    terminal with the largest aggregate.  Results are cached on the exact
    masks, and a state stops at the first child that reaches the trivial
    maximum n*m (every node full)."""
    if masks not in cache:
        m = len(masks)
        best = None
        for i, j in combinations(range(m), 2):
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
    # both searches keep the first terminal, in gt_pairs depth-first order,
    # whose aggregate is strictly larger than any before it.  At (3, 6, 2) the
    # sets are disjoint, alpha* lies below the bound and several distinct
    # terminal states reach it, so a memoized search that kept a later one
    # would show here.
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
            b = optimal_aggregate(inst, memoize=False)
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
    for memoize in (True, False):
        res = optimal_aggregate(inst, memoize=memoize)
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
            b = optimal_aggregate(inst, memoize=False)
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
        optimal_aggregate(inst, max_states=1, memoize=False)
    # a sufficient budget succeeds and reports how much it used
    res = optimal_aggregate(inst, max_states=10_000)
    assert 0 < res.states_explored <= 10_000


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
