import math
from itertools import combinations

import pytest

from segswap.graph import (
    GTViolationError,
    build_exchange_graph,
    exchange,
    gt_satisfied,
    preference_list,
)
from segswap.model import Instance, InvalidParameterError, SegmentSet, SlotState

from conftest import UTILITIES, gain, lists_for, random_state, seeded


def by_gain(i, neighbors, st, pef, f):
    """i's neighbours sorted by descending gain under the utility `f`, ties
    by ascending id, truncated to max(1, floor(pef * deg))."""
    ranked = sorted(neighbors, key=lambda j: (-gain(i, j, st, f), j))
    return tuple(ranked[: max(1, math.floor(pef * len(neighbors)))])


def state_of(n, *member_lists) -> SlotState:
    sets = [SegmentSet.from_members(n, ms) for ms in member_lists]
    return SlotState(slot=1, sets=sets, downloads=[0] * len(sets))


# ---------------------------------------------------------------------------
# GT criterion and exchange


def test_gt_satisfied_examples():
    assert gt_satisfied(SegmentSet.from_members(3, [0, 1]), SegmentSet.from_members(3, [1, 2]))
    assert not gt_satisfied(SegmentSet.from_members(3, [0, 1]), SegmentSet.from_members(3, [0, 1]))
    assert not gt_satisfied(SegmentSet.from_members(3, [0]), SegmentSet(3, 0b111))
    with pytest.raises(InvalidParameterError, match="different universes"):
        gt_satisfied(SegmentSet(2, 0b01), SegmentSet(3, 0b001))


def test_gt_satisfied_exhaustive_small_universes():
    # symmetry and the set-difference definition, over every pair of masks
    for n in range(1, 5):
        for x in range(1 << n):
            for y in range(1 << n):
                a, b = SegmentSet(n, x), SegmentSet(n, y)
                expected = bool(x & ~y) and bool(y & ~x)
                assert gt_satisfied(a, b) == expected
                assert gt_satisfied(b, a) == expected


def test_exchange_examples():
    u, v = exchange(SegmentSet.from_members(3, [0, 1]), SegmentSet.from_members(3, [1, 2]))
    assert u.mask == v.mask == 0b111
    u, v = exchange(SegmentSet.from_members(2, [0]), SegmentSet.from_members(2, [1]))
    assert u.mask == v.mask == 0b11
    with pytest.raises(GTViolationError):
        exchange(SegmentSet.from_members(1, [0]), SegmentSet.from_members(1, [0]))


def test_exchange_strictly_grows():
    rng = seeded(10)
    done = 0
    while done < 300:
        n = int(rng.integers(2, 9))
        a = SegmentSet(n, int(rng.integers(1, 1 << n)))
        b = SegmentSet(n, int(rng.integers(1, 1 << n)))
        if not gt_satisfied(a, b):
            continue
        u, v = exchange(a, b)
        assert u == v
        assert len(u) >= max(len(a), len(b)) + 1
        done += 1


# ---------------------------------------------------------------------------
# exchange graph


def test_build_exchange_graph_examples():
    g = build_exchange_graph(state_of(2, [0], [1], ))
    assert g.adjacency == ((1,), (0,))

    g = build_exchange_graph(state_of(2, [0], [1], [0]))
    assert g.adjacency == ((1,), (0, 2), (1,))  # (0,2) absent: equal sets
    assert g.neighbors(1) == (0, 2)
    assert not g.is_empty

    g = build_exchange_graph(state_of(2, [0], [0], [0]))
    assert g.is_empty and g.adjacency == ((), (), ())


def test_exchange_graph_symmetry_random():
    rng = seeded(11)
    for _ in range(200):
        st = random_state(rng)
        g = build_exchange_graph(st)
        assert len(g.adjacency) == st.m
        for i in range(st.m):
            assert i not in g.neighbors(i)
            for j in g.neighbors(i):
                assert i in g.neighbors(j)
                assert gt_satisfied(st.sets[i], st.sets[j])


# ---------------------------------------------------------------------------
# preference lists


def five_neighbor_state() -> SlotState:
    # node 0 = {0}; nodes 1..5 = {j}: everyone is GT with everyone
    return state_of(6, [0], [1], [2], [3], [4], [5])


def test_preference_list_truncation_lengths():
    st = five_neighbor_state()
    g = build_exchange_graph(st)
    assert len(preference_list(0, g, st, 0.5).ranked) == 2
    assert len(preference_list(0, g, st, 0.1).ranked) == 1  # max(1, floor(.5))
    assert len(preference_list(0, g, st, 1.0).ranked) == 5


def test_preference_list_pef_domain():
    st = five_neighbor_state()
    g = build_exchange_graph(st)
    with pytest.raises(ValueError):
        preference_list(0, g, st, 1.2)
    with pytest.raises(ValueError):
        preference_list(0, g, st, -0.1)


def test_preference_list_order_and_ties():
    st = state_of(5, [0], [1], [1, 2], [1, 2, 3], [0])
    g = build_exchange_graph(st)
    pl = preference_list(0, g, st, 1.0)
    # unions with node 0: sizes 4 (node 3), 3 (node 2), 2 (node 1); node 4 equal set
    assert pl.ranked == (3, 2, 1)
    assert [gain(0, j, st, UTILITIES["cardinality"]) for j in pl.ranked] == [3, 2, 1]

    # tie between equal-set partners resolved by ascending id
    st = state_of(3, [0], [1], [1])
    g = build_exchange_graph(st)
    assert preference_list(0, g, st, 1.0).ranked == (1, 2)


def test_preference_list_truncation_cuts_tie_groups():
    # 4 equally good neighbors; pef=0.5 keeps exactly 2 despite the tie
    st = state_of(5, [0], [1], [1], [1], [1])
    g = build_exchange_graph(st)
    assert preference_list(0, g, st, 0.5).ranked == (1, 2)


def test_preference_list_empty_when_isolated():
    st = state_of(2, [0], [0])
    g = build_exchange_graph(st)
    assert preference_list(0, g, st, 1.0).ranked == ()


def test_preference_list_invariants_random():
    rng = seeded(12)
    for _ in range(300):
        st = random_state(rng)
        g = build_exchange_graph(st)
        pef = float(rng.choice([0.05, 0.3, 0.5, 0.8, 1.0]))
        for i in range(st.m):
            pl = preference_list(i, g, st, pef)
            neighbors = g.neighbors(i)
            limit = max(1, math.floor(pef * len(neighbors)))
            if neighbors:
                assert 1 <= len(pl.ranked) == min(limit, len(neighbors))
            else:
                assert pl.ranked == ()
            mi = st.sets[i].mask
            unions = [(mi | st.sets[j].mask).bit_count() for j in pl.ranked]
            assert all(u > mi.bit_count() for u in unions)
            assert all(a >= b for a, b in zip(unions, unions[1:]))
            assert set(pl.ranked) <= set(neighbors)


def test_preference_order_invariant_under_monotone_f():
    rng = seeded(13)
    for _ in range(300):
        st = random_state(rng)
        g = build_exchange_graph(st)
        pef = float(rng.choice([0.25, 0.5, 1.0]))
        for i in range(st.m):
            ranked = preference_list(i, g, st, pef).ranked
            for f in UTILITIES.values():
                assert ranked == by_gain(i, g.neighbors(i), st, pef, f)


# ---------------------------------------------------------------------------
# mutual first preferences and utilities


def test_mutual_pair_exists_on_nonempty_graphs():
    rng = seeded(15)
    checked = 0
    while checked < 400:
        st = random_state(rng)
        g, lists = lists_for(st, 1.0)
        if g.is_empty:
            continue
        tops = {i: pl.ranked[0] for i, pl in enumerate(lists) if pl.ranked}
        assert any(tops.get(j) == i for i, j in tops.items()), (
            "nonempty exchange graph must have a mutual top pair"
        )
        checked += 1


def test_utility_tag_flows_through_lists():
    """A utility other than the cardinality changes the gains, not the
    lists, which read no utility."""
    st = SlotState.initial(Instance.build(3, [[0], [1], [1, 2]]))
    g = build_exchange_graph(st)
    gains = {(i, j): gain(i, j, st, UTILITIES["quadratic"])
             for i in range(st.m) for j in g.neighbors(i)}
    # node 0 gains f(2) - f(1) = 3 from node 1 and f(3) - f(1) = 8 from node 2
    assert gains == {(0, 1): 3, (0, 2): 8, (1, 0): 3, (2, 0): 5}
    # node 0 still ranks 2 first
    assert preference_list(0, g, st, 1.0).ranked == (2, 1)
