import hashlib

import pytest

from segswap.graph import PreferenceList, build_exchange_graph, gt_satisfied
from segswap.matching import (
    InconsistentListsError,
    Matching,
    find_stable_matching,
    verify_stability,
)
from segswap.model import SegmentSet, SlotState

from conftest import all_stable_matchings, blocking_pairs, lists_for, random_state, seeded


def state_of(n, *member_lists) -> SlotState:
    sets = [SegmentSet.from_members(n, ms) for ms in member_lists]
    return SlotState(slot=1, sets=sets, downloads=[0] * len(sets))


def pl(*ranked) -> PreferenceList:
    return PreferenceList(ranked=ranked)


# ---------------------------------------------------------------------------
# frozen examples


def test_matching_example_four_nodes():
    st = state_of(4, [0], [1], [0, 1, 2], [3])
    graph, lists = lists_for(st, 1.0)
    m = find_stable_matching(lists, graph)
    assert m.pairs == {(0, 1), (2, 3)}
    assert m.unmatched == frozenset()
    assert verify_stability(lists, m) is None
    assert sorted(m.pairs) == [(0, 1), (2, 3)] and not m.unmatched
    assert (0, 1) in m.pairs and (2, 3) in m.pairs


def test_matching_two_nodes():
    _, lists = lists_for(state_of(2, [0], [1]), 1.0)
    m = find_stable_matching(lists)
    assert m.pairs == {(0, 1)} and m.unmatched == frozenset()


def test_matching_no_edges():
    _, lists = lists_for(state_of(2, [0], [0], [0]), 1.0)
    m = find_stable_matching(lists)
    assert m.pairs == frozenset()
    assert m.unmatched == {0, 1, 2}
    assert not any(0 in pair for pair in m.pairs)
    assert not m.pairs and sorted(m.unmatched) == [0, 1, 2]


def test_matching_odd_node_out():
    st = state_of(2, [0], [1], [0])
    graph, lists = lists_for(st, 1.0)
    m = find_stable_matching(lists, graph)
    # node 1 tie-breaks to the lower id; node 2 is left over
    assert m.pairs == {(0, 1)}
    assert m.unmatched == {2}
    assert sorted(m.pairs) == [(0, 1)] and sorted(m.unmatched) == [2]
    assert verify_stability(lists, m) is None


# ---------------------------------------------------------------------------
# list/graph consistency and pruning


def test_inconsistent_lists_rejected():
    st = state_of(2, [0], [1], [0])
    graph, lists = lists_for(st, 1.0)
    bad = [pl(2), lists[1], lists[2]]  # no GT edge (0,2): equal sets
    with pytest.raises(InconsistentListsError):
        find_stable_matching(bad, graph)
    # without the graph there is nothing to check against; the one-directional
    # entry is pruned instead
    m = find_stable_matching(bad)
    assert 0 in m.unmatched


def test_one_directional_entries_pruned():
    lists = [pl(1), pl(0), pl(0)]
    m = find_stable_matching(lists)
    assert m.pairs == {(0, 1)}
    assert m.unmatched == {2}
    assert verify_stability(lists, m) is None


def test_matching_is_deterministic():
    rng = seeded(20)
    for _ in range(50):
        st = random_state(rng)
        _, lists = lists_for(st, 1.0)
        a = find_stable_matching(lists)
        b = find_stable_matching(lists)
        assert a.pairs == b.pairs and a.unmatched == b.unmatched


def test_matching_digest_on_lists_in_any_order():
    """The protocol on lists that need not follow union sizes: each node
    lists a random subset of the others (possibly none) in random order, so
    one-directional entries and preference cycles occur.  The digest of the
    pairs and unmatched sets was taken before the protocol was folded into
    `find_stable_matching`."""
    rng = seeded(25)
    h = hashlib.sha256()
    for _ in range(3000):
        m = int(rng.integers(1, 10))
        lists = []
        for i in range(m):
            others = [j for j in range(m) if j != i]
            k = int(rng.integers(0, m))
            lists.append(pl(*rng.permutation(others)[:k].tolist()))
        res = find_stable_matching(lists)
        h.update(f"{sorted(res.pairs)} {sorted(res.unmatched)}\n".encode())
    assert h.hexdigest() == "fdb43b334e24cb6343386bba2ecfc2022a7b2625634a644917596f919849dd04"


# ---------------------------------------------------------------------------
# stability against brute force


@pytest.mark.parametrize("pef", [0.3, 0.6, 1.0])
def test_matching_stable_and_unique_brute_force(pef):
    rng = seeded(21, int(pef * 10))
    for _ in range(180):
        st = random_state(rng, max_m=6, max_n=6)
        _, lists = lists_for(st, pef)
        m = find_stable_matching(lists)
        assert verify_stability(lists, m) is None
        assert blocking_pairs(lists, sorted(m.pairs)) == []
        stable = all_stable_matchings(lists)
        assert m.pairs in stable
        assert len(stable) == 1  # symmetric gains + id tie-break force uniqueness


def test_full_lists_leave_no_adjacent_unmatched():
    rng = seeded(22)
    for _ in range(200):
        st = random_state(rng)
        graph, lists = lists_for(st, 1.0)
        m = find_stable_matching(lists, graph)
        un = sorted(m.unmatched)
        for a in range(len(un)):
            for b in range(a + 1, len(un)):
                assert not gt_satisfied(st.sets[un[a]], st.sets[un[b]])


@pytest.mark.parametrize("pef", [0.1, 0.5, 1.0])
def test_nonempty_graph_always_pairs_someone(pef):
    rng = seeded(23, int(pef * 10))
    done = 0
    while done < 150:
        st = random_state(rng)
        graph, lists = lists_for(st, pef)
        if graph.is_empty:
            continue
        m = find_stable_matching(lists, graph)
        assert m.pairs, "a globally best GT edge survives any truncation"
        done += 1


# ---------------------------------------------------------------------------
# verify_stability structural checks


def two_node_lists():
    _, lists = lists_for(state_of(2, [0], [1]), 1.0)
    return lists


def test_verify_rejects_duplicate_node():
    _, lists = lists_for(state_of(2, [0], [1], [0]), 1.0)
    m = Matching(pairs=frozenset({(0, 1), (1, 2)}), unmatched=frozenset())
    with pytest.raises(ValueError, match="two pairs"):
        verify_stability(lists, m)


def test_verify_rejects_paired_and_unmatched_overlap():
    lists = two_node_lists()
    m = Matching(pairs=frozenset({(0, 1)}), unmatched=frozenset({1}))
    with pytest.raises(ValueError, match="both paired and unmatched"):
        verify_stability(lists, m)


def test_verify_rejects_non_partition():
    _, lists = lists_for(state_of(2, [0], [1], [0]), 1.0)
    m = Matching(pairs=frozenset({(0, 1)}), unmatched=frozenset())
    with pytest.raises(ValueError, match="partition"):
        verify_stability(lists, m)


def test_verify_rejects_unlisted_pair():
    _, lists = lists_for(state_of(2, [0], [1], [0]), 1.0)
    m = Matching(pairs=frozenset({(0, 2)}), unmatched=frozenset({1}))
    with pytest.raises(ValueError, match="not mutually listed"):
        verify_stability(lists, m)


def test_verify_finds_planted_blocking_pair():
    lists = [
        pl(2, 1),
        pl(3, 0),
        pl(0),
        pl(1),
    ]
    m = Matching(pairs=frozenset({(0, 1)}), unmatched=frozenset({2, 3}))
    assert verify_stability(lists, m) == (0, 2)


def test_verify_empty_matching_can_block():
    lists = two_node_lists()
    m = Matching(pairs=frozenset(), unmatched=frozenset({0, 1}))
    assert verify_stability(lists, m) == (0, 1)


def test_matched_pairs_are_gt_edges():
    rng = seeded(24)
    for _ in range(100):
        st = random_state(rng)
        graph, lists = lists_for(st, 0.5)
        m = find_stable_matching(lists, graph)
        for i, j in m.pairs:
            assert gt_satisfied(st.sets[i], st.sets[j])
            assert j in lists[i].ranked and i in lists[j].ranked
