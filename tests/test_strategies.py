import dataclasses
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from segswap import model, strategies
from segswap.graph import build_exchange_graph, gt_pairs, gt_satisfied, preference_list
from segswap.matching import Matching, find_stable_matching, verify_stability
from segswap.model import (
    Instance,
    InvalidParameterError,
    SegmentSet,
    SlotState,
    make_instance,
    sets_from_bytes,
    validate_instance,
)
from segswap.strategies import (
    ALGORITHMS,
    SlotEvents,
    Trace,
    _decode,
    _draw_words,
    _exchange,
    _gt_witness,
    _key_pairs,
    _listed,
    _live,
    _mask_matrix,
    _matrix_pairs,
    _mutual_picks,
    _random_slot,
    _run_randomized,
    _run_values,
    _stable_pairs,
    _union_gt,
    _union_sizes,
    randomized_trajectory,
    run_simulation,
    step_deterministic,
    step_randomized,
)

from conftest import FINDERS, force_finder, random_valid_instance, reference_randomized, seeded


def replay(trace):
    """Re-apply the sparse event log to the initial sets; returns the count of
    universe holders after each recorded slot plus the final masks."""
    n = trace.instance.n
    full = (1 << n) - 1
    masks = [s.mask for s in trace.instance.initial_sets]
    counts = [sum(mk == full for mk in masks)]
    for _, ev in trace.events:
        for i, j in ev.activations:
            u = masks[i] | masks[j]
            masks[i] = masks[j] = u
        for i, s in ev.downloads:
            masks[i] |= 1 << s
        counts.append(sum(mk == full for mk in masks))
    return counts, masks


# ---------------------------------------------------------------------------
# single slots


def test_step_two_nodes():
    inst = Instance.build(2, [[0], [1]])
    state = SlotState.initial(inst)
    ev = step_deterministic(state, inst, seeded(0))
    assert ev.activations == ((0, 1),)
    assert ev.downloads == ()
    assert not ev.is_empty
    assert state.slot == 2
    assert [s.mask for s in state.sets] == [0b11, 0b11]


def test_step_with_download():
    inst = Instance.build(2, [[0], [1], [0]], sap=1.0, pef=1.0)
    state = SlotState.initial(inst)
    ev = step_deterministic(state, inst, seeded(0))
    assert ev.activations == ((0, 1),)
    assert ev.downloads == ((2, 1),)
    assert [s.mask for s in state.sets] == [0b11, 0b11, 0b11]
    assert state.downloads == [0, 0, 1]


def test_step_noop_when_isolated():
    inst = Instance.build(2, [[0], [0]])
    state = SlotState.initial(inst)
    ev = step_deterministic(state, inst, seeded(0))
    assert ev.is_empty
    assert state.slot == 2


def targets(raw):
    """Decode raw picks: node i's raw pick r means target r + (r >= i)."""
    return raw + (raw >= np.arange(raw.shape[1]))


def raw_picks(picks):
    """Encode targets as raw picks, the inverse of `targets`."""
    picks = np.asarray(picks)
    return (picks - (picks > np.arange(picks.shape[1]))).astype(np.int32)


def test_draw_picks_never_self():
    rng = seeded(30)
    for m in (2, 3, 5, 9):
        for slots in (1, 4):
            for _ in range(50):
                raw = drawn_picks(rng, slots, m)
                assert raw.shape == (slots, m) and raw.dtype == np.int32
                p = targets(raw)
                assert ((0 <= p) & (p < m) & (p != np.arange(m))).all()
    # m=2 leaves no choice at all
    assert targets(drawn_picks(seeded(31), 1, 2)).tolist() == [[1, 0]]


@pytest.mark.parametrize("m", [2, 3, 7, 200])
def test_int32_picks_match_int64_stream(m):
    """The engine's words decode to the int64 draw's values and leave the
    generator in the same state, so the run loop (words) and a lone slot
    (numpy's int64 draw) read one stream."""
    a, b = seeded(33, m), seeded(33, m)
    wide = a.integers(0, m - 1, size=(300, m))
    assert wide.dtype == np.int64
    assert np.array_equal(drawn_picks(b, 300, m), wide)
    assert a.random() == b.random()


@pytest.mark.parametrize("m", [3, 7, 200])
def test_chunked_draw_matches_whole_draw(m):
    """Drawing a block in chunks continues one stream: the rows are those of
    a single draw, and so is the generator state after them."""
    chunks = (1, 1, 3, 4096, 900)
    a, b = seeded(34, m), seeded(34, m)
    whole = a.integers(0, m - 1, size=(sum(chunks), m), dtype=np.int32)
    parts = np.concatenate([b.integers(0, m - 1, size=(c, m), dtype=np.int32) for c in chunks])
    assert np.array_equal(parts, whole)
    c = seeded(34, m)
    rows = np.concatenate([drawn_picks(c, size, m) for size in chunks])
    assert np.array_equal(rows, whole)
    assert a.random() == b.random() == c.random()


def drawn_picks(rng, slots, m):
    """The raw picks of the next `slots` rows that `_draw_words` draws."""
    return _decode(_draw_words(rng, slots, m), m)


@pytest.mark.parametrize("m", [2, 3, 5, 7, 200, 54_162])
def test_word_draw_is_numpys_draw(monkeypatch, m):
    """`_draw_words` reads the pick stream as 32-bit words: they decode to
    numpy's own int32 picks and leave the generator where numpy leaves it,
    on 1, 3 and 1,024 rows (not 1,024 at m = 54,162), from a fresh
    generator and from one holding a buffered half word.  With m = 2 numpy
    draws nothing, and neither does the word draw; with m - 1 a power of
    two (m = 3, 5) numpy rejects no word.  At m = 54,162 numpy rejects
    about 0.68 words a row, and the word draw reads replacements for them:
    `_words` is called more than once in some draws."""
    reads = []
    words = strategies._words

    def spying(rng, count):
        reads.append(count)
        return words(rng, count)

    monkeypatch.setattr(strategies, "_words", spying)
    draws = 0
    for slots in (1, 3) + (1024,) * (m < 1000):
        for buffered in (False, True):
            for seed in range(8):
                a, b = seeded(36, m, seed), seeded(36, m, seed)
                if buffered:  # one 32-bit word drawn: its high half waits
                    a.integers(0, 6, dtype=np.int32)
                    b.integers(0, 6, dtype=np.int32)
                    assert b.bit_generator.state["has_uint32"] == 1
                before = b.bit_generator.state
                want = a.integers(0, m - 1, size=(slots, m), dtype=np.int32)
                assert np.array_equal(drawn_picks(b, slots, m), want)
                assert a.bit_generator.state == b.bit_generator.state
                if m == 2:
                    assert b.bit_generator.state == before
                assert a.random() == b.random()
                draws += 1
    if m == 2:
        assert reads == []
    elif m == 54_162:
        assert len(reads) > draws
    elif m in (3, 5):
        assert len(reads) == draws


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.SFC64, np.random.Philox, np.random.PCG64DXSM],
)
def test_randomized_run_from_other_bit_generators_matches_reference(bit_generator):
    """The word draw reads PCG64's words and their buffered half word off
    `random_raw`; a run from a generator on any other bit generator reads
    its words through numpy and must equal the reference engine's run."""
    events = 0
    for m, n, k in [(7, 10, 3), (51, 30, 5), (200, 20, 4)]:
        inst = make_instance(m, n, k, seeded(67, m))
        for seed in range(2):
            a, b = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            got = randomized_outcome(_run_randomized, inst, a, 2_000_000)
            assert got == randomized_outcome(reference_randomized, inst, b, 2_000_000)
            events += len(got[0])
    assert events > 100


def test_word_draw_leaves_the_run_and_generator_of_numpys_draw(monkeypatch):
    """The engine's runs on the word draw equal its runs with every row
    drawn by numpy's int32 draw and encoded as words (`raw_words`), and
    leave the generator in the same state, on the shapes the engine is
    checked against the reference on."""
    draws = []

    def numpys_draw(rng, slots, m):
        draws.append(slots)
        return raw_words(targets(rng.integers(0, m - 1, size=(slots, m), dtype=np.int32)))

    shapes = [(200, 20, 4), (20, 50, 6), (7, 10, 3), (3, 4, 2), (2, 3, 2), (51, 30, 5),
              (80, 20, 3)]
    for m, n, k in shapes:
        for seed in range(3):
            inst = make_instance(m, n, k, seeded(57, m, seed))
            for cap in (2_000_000, 37):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = randomized_outcome(_run_randomized, inst, a, cap)
                with monkeypatch.context() as patch:
                    patch.setattr(strategies, "_draw_words", numpys_draw)
                    want = randomized_outcome(_run_randomized, inst, b, cap)
                assert got == want
                assert a.bit_generator.state == b.bit_generator.state
    assert len(draws) > len(shapes) * 6


def raw_words(picks):
    """Encode targets as words whose picks are `raw_picks(picks)`: the least
    w with floor(w * (m-1) / 2**32) = v is ceil(v * 2**32 / (m-1))."""
    raw = raw_picks(picks).astype(np.uint64)
    c = np.uint64(raw.shape[1] - 1)
    return (((raw << np.uint64(32)) + c - np.uint64(1)) // c).astype(np.uint32)


def test_apply_mutual_picks():
    """`_mutual_picks` reads the uint32 words that decode to the picks."""
    masks = [0b01, 0b10, 0b01]
    live = _live(masks)
    assert live.tolist() == [True, True, True]
    # row 0: 0 and 2 pick each other but hold the same set; row 1: 0 and
    # 1; row 2: no pick is returned
    words = raw_words([[2, 0, 0], [1, 0, 0], [1, 2, 0]])
    s, i, j = _mutual_picks(words, live)
    assert (s.tolist(), i.tolist(), j.tolist()) == ([0, 1], [0, 0], [2, 1])
    assert _exchange(masks, i[:1].tolist(), j[:1].tolist()) == ()
    assert _exchange(masks, i[1:].tolist(), j[1:].tolist()) == ((0, 1),)
    assert masks == [0b11, 0b11, 0b01]

    # only picks between live nodes are returned: 0 and 1 hold the full set
    masks = [0b11, 0b11, 0b01, 0b10]
    assert _live(masks).tolist() == [False, False, True, True]
    s, i, j = _mutual_picks(raw_words([[1, 0, 3, 2], [2, 3, 0, 1]]), _live(masks))
    assert (s.tolist(), i.tolist(), j.tolist()) == ([0], [2], [3])

    # mutual picks without GT do nothing
    masks = [0b01, 0b01]
    assert _random_slot(seeded(31), masks) == ()
    assert masks == [0b01, 0b01]


@pytest.mark.parametrize("m", [2, 3, 7, 200])
def test_random_slot_finds_the_mutual_picks_of_its_row(m):
    """`_random_slot` reads one row of numpy's draw as targets directly;
    over many seeded rows its pairs are those `_mutual_picks` finds in the
    same row as words with every node live.  The nodes hold pairwise
    disjoint sets, so every mutual pick satisfies GT and exchanges."""
    pairs = 0
    for seed in range(300):
        a, b = seeded(68, m, seed), seeded(68, m, seed)
        row = a.integers(0, m - 1, size=(1, m), dtype=np.int32)
        _, i, j = _mutual_picks(raw_words(targets(row)), np.ones(m, bool))
        masks = [1 << x for x in range(m)]
        got = _random_slot(b, masks)
        assert got == tuple(zip(i.tolist(), j.tolist()))
        assert a.bit_generator.state == b.bit_generator.state
        pairs += len(got)
    assert pairs > 100


def randomized_outcome(engine, inst, seed, max_slots):
    """What a randomized run leaves: its events, r_end, truncated flag and
    final masks.  Where it leaves the generator is not part of the run."""
    rng = np.random.default_rng(seed)
    masks = [s.mask for s in inst.initial_sets]
    events, r_end, truncated = engine(rng, max_slots, masks)
    return events, r_end, truncated, masks


@pytest.mark.parametrize("chunk", [None, 1, 3])
def test_randomized_engine_matches_reference(monkeypatch, chunk):
    """The engine draws ahead and finds mutual picks once per chunk; the
    reference searches every block on its own.  Both must leave the same
    run, with odd m, m = 2 and m = 1, caps that cut a block, and the
    default chunk sizes or `_CHUNK` and `_AHEAD` both set to `chunk`, so
    that chunks end inside blocks and before or after the run's last
    row."""
    if chunk is not None:
        monkeypatch.setattr(strategies, "_CHUNK", chunk)
        monkeypatch.setattr(strategies, "_AHEAD", chunk)
    shapes = [(200, 20, 4), (20, 50, 6), (7, 10, 3), (3, 4, 2), (2, 3, 2), (51, 30, 5),
              (80, 20, 3)]
    cases = [(Instance.build(2, [[0]]), 0, 100)]
    for m, n, k in shapes:
        for seed in range(6 if chunk is None else 2):
            inst = make_instance(m, n, k, seeded(57, m, seed))
            for cap in (2_000_000, 50 * n * m, 37, 500):
                if chunk is None or m < 200 or cap < 1000:
                    cases.append((inst, seed, cap))
    events = 0
    for inst, seed, cap in cases:
        got = randomized_outcome(_run_randomized, inst, seed, cap)
        assert got == randomized_outcome(reference_randomized, inst, seed, cap)
        events += len(got[0])
    assert events > 1000


@pytest.mark.parametrize("shape, chunk", [((200, 20, 4), None), ((7, 10, 3), 3)])
def test_randomized_run_draws_at_most_a_chunk_past_its_last_exchange(
    monkeypatch, shape, chunk
):
    """A run that ends by quiescence stops drawing with the chunk that held
    its last exchange: the pick stream moves forward only, and nothing is
    drawn to put the generator at the end of the last block."""
    if chunk is not None:
        monkeypatch.setattr(strategies, "_CHUNK", chunk)
        monkeypatch.setattr(strategies, "_AHEAD", chunk)
    drawn, hits = [], []
    draw_words, first_hit = strategies._draw_words, strategies._PickStream.first_hit

    def counting(rng, slots, m):
        drawn.append(slots)
        return draw_words(rng, slots, m)

    def recording(picks, start, stop, masks):
        hit = first_hit(picks, start, stop, masks)
        if hit is not None:
            hits.append(hit[0])
        return hit

    monkeypatch.setattr(strategies, "_draw_words", counting)
    monkeypatch.setattr(strategies._PickStream, "first_hit", recording)
    for seed in range(6):
        drawn.clear()
        hits.clear()
        inst = make_instance(*shape, seeded(59, seed))
        tr = run_simulation(inst, "randomized", seed=seed, max_slots=2_000_000)
        assert not tr.truncated and len(hits) == len(tr.events) > 0
        assert sum(drawn) - (hits[-1] + 1) <= strategies._CHUNK


def test_randomized_run_from_a_generator_is_deterministic():
    """Two generators in the same state give the same run and are left in
    the same state, wherever that is."""
    rng = seeded(60)
    for _ in range(10):
        inst = random_valid_instance(rng, max_m=9, max_n=9)
        a, b = seeded(61, inst.m), seeded(61, inst.m)
        ta = run_simulation(inst, "randomized", seed=a)
        tb = run_simulation(inst, "randomized", seed=b)
        assert (ta.events, ta.r_end, ta.truncated) == (tb.events, tb.r_end, tb.truncated)
        assert ta.final == tb.final
        assert a.random() == b.random()


@pytest.mark.parametrize("n", [3, 64, 65, 130])
def test_nodes_without_gt_partner_stay_dead(n):
    """A node with no GT partner holds a set comparable with every other
    set, and stays so under any exchange between two other nodes.  The ends
    of an exchange are GT partners, so the live set only shrinks, which
    lets one search for mutual picks serve a whole chunk of rows."""
    rng = seeded(58, n)
    dead_seen = 0
    for _ in range(40):
        st = kernel_test_state(rng, n)
        masks = [s.mask for s in st.sets]
        for _ in range(12):
            a, b = rng.choice(st.m, size=2, replace=False).tolist()
            dead = ~_live(masks)
            dead[[a, b]] = False
            dead_seen += int(dead.sum())
            masks[a] = masks[b] = masks[a] | masks[b]
            assert not _live(masks)[dead].any()
    assert dead_seen > 500


@pytest.mark.parametrize("n", [3, 64, 65, 130])
def test_live_nodes_and_gt_test_match_brute_force(n):
    """`_live` and `_gt_witness` read the GT pairs off the distinct masks in
    ascending order; `graph.gt_pairs` tries every pair.  The witness is one
    of those pairs, or None exactly when there is none.  States repeat masks
    and hold full and empty sets, so many are chains or nearly so."""
    rng = seeded(64, n)
    full = (1 << n) - 1
    seen = {"dead and live": 0, "chain of 3 sets": 0, "empty": 0, "full": 0}
    for _ in range(400):
        masks = [s.mask for s in kernel_test_state(rng, n, int(rng.integers(1, 16))).sets]
        for _ in range(int(rng.integers(0, 3))):
            masks[int(rng.integers(len(masks)))] = 0
        if rng.random() < 0.3:  # a chain: nested prefixes, some repeated
            masks = [masks[0] & ((1 << int(rng.integers(n + 1))) - 1) for _ in masks]
        pairs = gt_pairs(masks)
        live = [any(x in pair for pair in pairs) for x in range(len(masks))]
        assert _live(masks).tolist() == live
        w = _gt_witness(masks)
        assert w in pairs if pairs else w is None
        seen["dead and live"] += any(live) and not all(live)
        seen["chain of 3 sets"] += not pairs and len(set(masks)) >= 3
        seen["empty"] += 0 in masks
        seen["full"] += full in masks
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("chunk", [None, 1, 3])
def test_cached_live_mask_is_the_live_mask_at_every_draw(monkeypatch, chunk):
    """The pick stream keeps its live mask from one exchange to the next:
    at every chunk drawn it must equal `_live` of the masks then, while
    fewer live masks are computed than chunks drawn."""
    if chunk is not None:
        monkeypatch.setattr(strategies, "_CHUNK", chunk)
        monkeypatch.setattr(strategies, "_AHEAD", chunk)
    draws, found = [], []
    draw, live = strategies._PickStream._draw, strategies._live

    def checking(picks, start, stop, masks):
        draw(picks, start, stop, masks)
        assert np.array_equal(picks.live, live(masks))
        draws.append(start)

    def counting(masks):
        found.append(1)
        return live(masks)

    monkeypatch.setattr(strategies._PickStream, "_draw", checking)
    monkeypatch.setattr(strategies, "_live", counting)
    shapes = [(51, 30, 5), (20, 50, 6), (7, 10, 3)] + [(200, 20, 4)] * (chunk is None)
    for m, n, k in shapes:
        for seed in range(2):
            inst = make_instance(m, n, k, seeded(65, m, seed))
            assert run_simulation(inst, "randomized", seed=seed).events
    assert len(found) < len(draws)


def test_step_randomized_advances_slot():
    inst = Instance.build(2, [[0], [1]])
    state = SlotState.initial(inst)
    ev = step_randomized(state, inst, seeded(32))
    assert ev.activations == ((0, 1),)  # m=2 picks are forced
    assert state.slot == 2


def test_randomized_one_node_instance():
    """A lone node has no one to pick: the run ends at once, the stepper
    advances the slot without events or draws, and the trajectory stays put."""
    inst = Instance.build(2, [[0]])
    trace = run_simulation(inst, "randomized", seed=1)
    assert trace.r_end == 0 and not trace.events
    state = SlotState.initial(inst)
    rng = seeded(33)
    for slot in (2, 3):
        ev = step_randomized(state, inst, rng)
        assert ev.is_empty and state.slot == slot
    assert state.sets == trace.final.sets == list(inst.initial_sets)
    assert rng.random() == seeded(33).random()
    assert randomized_trajectory(inst, 5, seed=1) == [1.0] * 5


# ---------------------------------------------------------------------------
# the slot kernel against the graph-level reference


def matrix_sets(matrix, n):
    """The sets over n segments that the rows of a mask matrix hold."""
    return sets_from_bytes(matrix.tobytes(), n, 8 * matrix.shape[1])


def kernel_test_state(rng, n, m=None) -> SlotState:
    """Sets with many equal, nested and full members, so union sizes tie,
    some nodes are isolated, and truncation lands inside tie groups."""
    if m is None:
        m = int(rng.integers(2, 14))
    density = float(rng.choice([0.05, 0.3, 0.7]))
    full = (1 << n) - 1
    masks = []
    for _ in range(m):
        roll = rng.random()
        if masks and roll < 0.25:
            masks.append(masks[int(rng.integers(len(masks)))])
        elif roll < 0.35:
            masks.append(full)
        else:
            bits = np.flatnonzero(rng.random(n) < density)
            masks.append(sum(1 << int(b) for b in bits) or 1 << int(rng.integers(n)))
    return SlotState(slot=1, sets=[SegmentSet(n, mk) for mk in masks], downloads=[0] * m)


@pytest.mark.parametrize("n", [3, 63, 64, 65, 130])
def test_slot_kernel_matches_reference_matching(n):
    rng = seeded(44, n)
    for _ in range(80):
        st = kernel_test_state(rng, n)
        m = st.m
        pefs = [float(rng.choice([0.05, 0.3, 0.5, 0.7, 1.0])) for _ in range(m)]
        graph = build_exchange_graph(st)
        lists = [preference_list(i, graph, st, pefs[i]) for i in range(m)]
        ref = find_stable_matching(lists, graph)

        masks = _mask_matrix([s.mask for s in st.sets], n)
        assert masks.shape == (m, -(-n // 64))
        assert matrix_sets(masks, n) == st.sets
        union, gt = _union_gt(masks)
        for i in range(m):
            assert tuple(np.flatnonzero(gt[i])) == graph.neighbors(i)
            for j in range(m):
                assert union[i, j] == (st.sets[i].mask | st.sets[j].mask).bit_count()

        pairs = _stable_pairs(union, gt, pefs)
        assert pairs == sorted(ref.pairs)
        paired = {x for p in pairs for x in p}
        got = Matching(pairs=frozenset(pairs), unmatched=frozenset(range(m)) - paired)
        assert verify_stability(lists, got) is None


def greedy_pairs(st, pefs) -> list[tuple[int, int]]:
    """Greedy matching over the mutually listed pairs, taken by descending
    union size, then ascending (min id, max id).  Both sides of a pair rank
    it by the same union size, so this is the one stable matching."""
    graph = build_exchange_graph(st)
    listed = [set(preference_list(i, graph, st, pefs[i]).ranked) for i in range(st.m)]
    mutual = [(i, j) for i in range(st.m) for j in listed[i] if i < j and i in listed[j]]

    def order(pair):
        i, j = pair
        return -(st.sets[i].mask | st.sets[j].mask).bit_count(), i, j

    taken: set[int] = set()
    out = []
    for i, j in sorted(mutual, key=order):
        if i not in taken and j not in taken:
            taken.update((i, j))
            out.append((i, j))
    return sorted(out)


@pytest.mark.parametrize("shared_pef", [True, False])
@pytest.mark.parametrize("n", [3, 63, 64, 65, 130])
def test_slot_kernel_matches_greedy_matching(n, shared_pef):
    rng = seeded(46, n, int(shared_pef))
    choices = [0.0, 0.05, 0.3, 0.5, 0.7, 1.0]
    for m in range(2, 41):
        for _ in range(3):
            st = kernel_test_state(rng, n, m)
            if shared_pef:
                pefs = [float(rng.choice(choices))] * m
            else:
                pefs = [float(rng.choice(choices)) for _ in range(m)]
            union, gt = _union_gt(_mask_matrix([s.mask for s in st.sets], n))
            assert _stable_pairs(union, gt, pefs) == greedy_pairs(st, pefs)


def recorded_slots(monkeypatch, inst, algorithm, seed):
    """(state, union, gt, pefs) at every call of the matrix pair finder in
    one run whose state has a GT pair, with the (U, GT) it built, taken from
    the engine as it goes.  The run finds its pairs on the mask matrix at
    every m (`force_finder`)."""
    slots = []
    _, pefs = _run_values(inst, algorithm)
    union_gt = strategies._union_gt

    def record(matrix):
        union, gt = union_gt(matrix)
        if gt.any():
            st = SlotState(slot=len(slots) + 1, sets=matrix_sets(matrix, inst.n),
                           downloads=[0] * inst.m)
            slots.append((st, union.copy(), gt.copy(), pefs))
        return union, gt

    with monkeypatch.context() as patched:
        force_finder(patched, "_matrix_pairs")
        patched.setattr(strategies, "_union_gt", record)
        run_simulation(inst, algorithm, seed=seed)
    return slots


@pytest.mark.parametrize(
    "algorithm, shape, sap, pef",
    [
        ("lfs", (200, 100, 5), 0.0, 1.0),
        ("lspa", (20, 50, 6), 0.25, 0.05),
        ("lspa", (20, 50, 6), 0.25, 0.25),
        ("lspa", (20, 50, 6), 0.25, 1.0),
    ],
)
def test_slot_kernel_matches_reference_on_recorded_runs(
    monkeypatch, algorithm, shape, sap, pef
):
    rng = seeded(47, *shape, int(pef * 100))
    inst = make_instance(*shape, rng, sap=sap, pef=pef)
    slots = recorded_slots(monkeypatch, inst, algorithm, seed=0)
    assert len(slots) >= 3
    matched = []
    for st, union, gt, pefs in slots:
        graph = build_exchange_graph(st)
        lists = [preference_list(i, graph, st, pefs[i]) for i in range(st.m)]
        ref = find_stable_matching(lists, graph)
        pairs = _stable_pairs(union, gt, pefs)
        assert pairs == sorted(ref.pairs)
        assert verify_stability(lists, ref) is None
        matched.append(len(pairs))
    assert max(matched) > 1


# ---------------------------------------------------------------------------
# the Python-int path against the mask matrix and the reference


def recorded_int_slots(monkeypatch, inst, algorithm, seed):
    """(state, pairs, pefs) at every slot of one run that has a GT pair,
    with the pairs `_int_slot` took, taken from the engine as it goes.  The
    run finds its pairs from Python int keys in every slot (`force_finder`)."""
    slots = []
    calls = []
    _, pefs = _run_values(inst, algorithm)
    int_slot = strategies._int_slot

    def record(masks, pairs, rng, sap, n, downloads):
        calls.append(None)
        st = SlotState(slot=len(calls), sets=[SegmentSet(n, mk) for mk in masks],
                       downloads=list(downloads))
        ev = int_slot(masks, pairs, rng, sap, n, downloads)
        if pairs:
            slots.append((st, ev.activations, pefs))
        return ev

    with monkeypatch.context() as patched:
        force_finder(patched, "_int_pairs")
        patched.setattr(strategies, "_int_slot", record)
        run_simulation(inst, algorithm, seed=seed)
    return slots


@pytest.mark.parametrize(
    "shape, sap, pef",
    [((6, 10, 3), 0.25, 0.25), ((8, 12, 3), 0.5, 0.05), ((12, 20, 4), 0.25, 0.25)],
)
def test_int_slots_match_reference_on_recorded_runs(monkeypatch, shape, sap, pef):
    """lspa with cut rows and SAP downloads, on the int path: every slot's
    pairs are those of `find_stable_matching` over the cut lists, and
    stable."""
    assert shape[0] <= strategies._INT_MAX_M
    matched = []
    cut = 0
    for t in range(4):
        inst = make_instance(*shape, seeded(48, *shape, t), sap=sap, pef=pef)
        slots = recorded_int_slots(monkeypatch, inst, "lspa", seed=t)
        assert len(slots) >= 3
        for st, pairs, pefs in slots:
            graph = build_exchange_graph(st)
            lists = [preference_list(i, graph, st, pefs[i]) for i in range(st.m)]
            cut += any(len(pl.ranked) < len(graph.neighbors(i)) for i, pl in enumerate(lists))
            ref = find_stable_matching(lists, graph)
            assert list(pairs) == sorted(ref.pairs)
            paired = {x for p in pairs for x in p}
            got = Matching(pairs=frozenset(pairs), unmatched=frozenset(range(st.m)) - paired)
            assert verify_stability(lists, got) is None
            matched.append(len(pairs))
    assert max(matched) > 1 and cut > 0


def every_finder(monkeypatch, inst, algorithm, **kwargs):
    """The trace of one run with its pairs found by each finder of FINDERS
    in every slot (`force_finder`), and the generator state each leaves
    behind (one draw)."""
    out = []
    for finder in FINDERS:
        with monkeypatch.context() as patched:
            force_finder(patched, finder)
            rng = seeded(49, inst.m, inst.n)
            out.append((run_simulation(inst, algorithm, seed=rng, **kwargs), rng.random()))
    return out


INT_PATH_SHAPES = [
    (m, 2 * m, max(2, 2 * m // 3)) for m in range(2, strategies._INT_MAX_M + 2)
] + [(20, 50, 6), (5, 2000, 1500), (strategies._INT_MAX_M, 2000, 1500)]


def same_on_every_finder(monkeypatch, inst, algorithm, **kwargs) -> Trace:
    """The trace of one run with its pairs from Python int keys, checked
    against numpy int keys and the mask matrix: the same events, r_end,
    truncation, final sets and downloads, and the same generator state."""
    (ti, ri), *others = every_finder(monkeypatch, inst, algorithm, **kwargs)
    for to, ro in others:
        assert (ti.events, ti.r_end, ti.truncated) == (to.events, to.r_end, to.truncated)
        assert ti.final == to.final  # slot, sets and per-node downloads
        assert ri == ro
    return ti


@pytest.mark.parametrize("shape", INT_PATH_SHAPES)
def test_int_path_matches_mask_matrix(monkeypatch, shape):
    """Every deterministic algorithm, over a SAP x PEF grid, with the default
    cap and with half the default run's slots, gives the same run on each
    pair finder: from m = 2 to one past `_INT_MAX_M`, and with W = 32 words
    and unions above 255 at n = 2000."""
    rng = seeded(50, *shape)
    downloads = 0
    for sap in (0.0, 0.25, 1.0):
        for pef in (0.05, 0.25, 1.0):
            inst = make_instance(*shape, rng, sap=sap, pef=pef)
            for algorithm in ("lspa", "pepa", "lfs"):
                cap = None
                for truncated in (False, True):
                    tr = same_on_every_finder(monkeypatch, inst, algorithm, max_slots=cap)
                    assert tr.truncated == truncated  # a valid instance starts with exchanges
                    downloads += tr.total_downloads()
                    cap = tr.r_end // 2
    assert downloads > 0 or shape[0] == 2  # two nodes exchange to the full universe at once


def test_int_path_matches_mask_matrix_with_repeated_masks(monkeypatch):
    """Nodes that share a mask share its unions: starts whose m nodes take
    their sets from a pool of 2 to 4, so that every start repeats a mask,
    give the same run on each pair finder."""
    rng = seeded(52)
    exchanges = cut = 0
    for _ in range(30):
        m = int(rng.integers(5, strategies._INT_MAX_M + 1))
        n = int(rng.integers(4, 40))
        pool = [rng.choice(n, size=int(rng.integers(1, n)), replace=False)
                for _ in range(int(rng.integers(2, 5)))]
        sets = [pool[int(rng.integers(len(pool)))] for _ in range(m)]
        sap, pef = float(rng.choice([0.0, 0.25, 1.0])), float(rng.choice([0.05, 0.5, 1.0]))
        inst = Instance.build(n, sets, sap=sap, pef=pef)
        for algorithm in ("lspa", "pepa", "lfs"):
            tr = same_on_every_finder(monkeypatch, inst, algorithm)
            exchanges += sum(len(ev.activations) for _, ev in tr.events)
        cut += pef < 1.0
    assert exchanges > 100 and cut > 0


def every_gt_key(masks: list[int], n: int) -> list[int]:
    """The keys of `_int_edges`, from every pair of nodes in turn."""
    b = len(masks).bit_length()
    return sorted(
        (n - (a | c).bit_count()) << 2 * b | i << b | j
        for i, a in enumerate(masks)
        for j, c in enumerate(masks)
        if i < j and a | c not in (a, c)
    )


def test_int_edges_lists_every_gt_pair():
    """Masks drawn from a small pool, so that classes repeat, over up to 130
    segments, so that masks pass 64 bits: the keys are those of every
    pair."""
    rng = seeded(55)
    wide = 0
    for _ in range(400):
        m, n = int(rng.integers(2, 26)), int(rng.integers(2, 131))
        pool = [int.from_bytes(rng.bytes(17), "little") & (1 << n) - 1
                for _ in range(int(rng.integers(1, 5)))]
        masks = [pool[int(rng.integers(len(pool)))] for _ in range(m)]
        assert strategies._int_edges(masks, n) == every_gt_key(masks, n)
        wide += max(masks) >> 64 > 0
    assert wide > 100


@pytest.mark.parametrize("n", [3, 50, 64, 65, 130])
def test_key_pairs_match_reference_matching(n):
    """The numpy int keys give the pairs of `find_stable_matching` over the
    PEF-cut lists, on states with equal, nested and full sets (so unions
    tie and some nodes have no GT partner), at PEF 0.05, 0.25, 0.5 and 1,
    shared or per node.  A row with no GT partner still keeps one entry
    (max(1, 0)), which must not list a pair."""
    rng = seeded(58, n)
    choices = [0.05, 0.25, 0.5, 1.0]
    ties = equal = lonely = cut = 0
    for _ in range(150):
        st = kernel_test_state(rng, n, int(rng.integers(2, 21)))
        m = st.m
        if rng.random() < 0.5:
            pefs = (float(rng.choice(choices)),) * m
        else:
            pefs = tuple(float(rng.choice(choices)) for _ in range(m))
        graph = build_exchange_graph(st)
        lists = [preference_list(i, graph, st, pefs[i]) for i in range(m)]
        masks = [s.mask for s in st.sets]
        assert _key_pairs(masks, n, pefs) == sorted(find_stable_matching(lists, graph).pairs)
        unions = [(masks[i] | masks[j]).bit_count() for i, j in gt_pairs(masks)]
        ties += len(set(unions)) < len(unions)
        equal += len(set(masks)) < m
        lonely += any(not graph.neighbors(i) for i in range(m)) and min(pefs) < 1.0
        cut += any(len(pl.ranked) < len(graph.neighbors(i)) for i, pl in enumerate(lists))
    assert min(ties, equal, lonely, cut) > 20
    flat, ij = strategies._triangle(5)
    assert not flat.flags.writeable and not ij.flags.writeable


def changed_nodes(ev: SlotEvents) -> set[int]:
    return {x for pair in ev.activations for x in pair} | {i for i, _ in ev.downloads}


def test_int_path_matches_mask_matrix_when_a_slot_changes_every_node_or_one(monkeypatch):
    """Runs whose first slot changes every node, and runs whose slots
    change one node at a time, give the same events on each pair
    finder."""
    m, n = strategies._INT_MAX_M, 40
    # every node changes in slot 1: singletons pair off (m is even), and
    # nodes that all hold one segment all download
    singletons = Instance.build(n, [[i] for i in range(m)])
    for algorithm in ("lfs", "pepa", "lspa"):
        tr = same_on_every_finder(monkeypatch, singletons, algorithm)
        assert tr.events[0][0] == 1 and changed_nodes(tr.events[0][1]) == set(range(m))
    alike = Instance.build(n, [[0]] * m, sap=1.0, pef=0.5)
    tr = same_on_every_finder(monkeypatch, alike, "lspa")
    assert tr.events[0][0] == 1 and changed_nodes(tr.events[0][1]) == set(range(m))
    # one node changes in slot 1: only node 0, a subset of every other set,
    # may download; what it gains pairs it with the others or with no one
    singles = 0
    for t in range(10):
        rng = seeded(53, t)
        rest = rng.choice(n, size=n // 2, replace=False)
        first = rest[: int(rng.integers(1, len(rest)))]
        one = Instance.build(n, [first] + [rest] * (m - 1), sap=[1.0] + [0.0] * (m - 1), pef=0.25)
        tr = same_on_every_finder(monkeypatch, one, "lspa")
        assert tr.events[0][0] == 1 and changed_nodes(tr.events[0][1]) == {0}
        singles += sum(len(changed_nodes(ev)) == 1 for _, ev in tr.events)
    assert singles > 50


def finder_calls(monkeypatch) -> list[list]:
    """Spy on `strategies._pairs` and its three finders: each call of
    `_pairs` appends [the finder it took, its masks as a tuple]."""
    calls = []
    pairs = strategies._pairs

    def spy_pairs(masks, n, pef):
        calls.append([None, tuple(masks)])
        return pairs(masks, n, pef)

    for name in FINDERS:
        def spy(*args, _name=name, _finder=getattr(strategies, name)):
            assert calls[-1][0] is None  # one finder per call of _pairs
            calls[-1][0] = _name
            return _finder(*args)

        monkeypatch.setattr(strategies, name, spy)
    monkeypatch.setattr(strategies, "_pairs", spy_pairs)
    return calls


@pytest.mark.parametrize(
    "algorithm, shape, finders",
    [
        ("lspa", (20, 50, 6), {"_int_pairs", "_key_pairs"}),
        ("pepa", (6, 10, 3), {"_int_pairs"}),
        ("lfs", (200, 100, 5), {"_matrix_pairs"}),
    ],
    ids=["lspa-20", "pepa-6", "lfs-200"],
)
def test_runs_take_the_finder_their_masks_select(monkeypatch, algorithm, shape, finders):
    """lspa at the paper's shape finds the pairs of slots with more than
    `_INT_MAX_MASKS` distinct masks from numpy int keys and those of the
    others from Python int keys; pepa at m = 6 only from Python int keys;
    lfs at m = 200 only on the mask matrix.  `step_deterministic`, stepped
    through the same run, takes the run's finder at every slot."""
    calls = finder_calls(monkeypatch)
    found = set()
    for t in range(3):
        inst = make_instance(*shape, seeded(54, *shape, t), sap=0.25, pef=0.25)
        tr = run_simulation(inst, algorithm, seed=t)
        run_calls, calls[:] = calls[:], []
        found.update(name for name, _ in run_calls)
        for name, masks in run_calls:
            if name != "_matrix_pairs":
                many = len(set(masks)) > strategies._INT_MAX_MASKS
                assert name == ("_key_pairs" if many else "_int_pairs")
        # the stepper, on the values the algorithm runs, through the slot
        # after r_end, where the run found no pair and stopped
        sap, pef = _run_values(inst, algorithm)
        stepped = dataclasses.replace(inst, sap=sap, pef=pef)
        state = SlotState.initial(stepped)
        rng = np.random.default_rng(t)
        for _ in range(tr.r_end + 1):
            step_deterministic(state, stepped, rng)
        # a slot without events leaves the masks as they were, and the run
        # finds its pairs again only after a slot with events
        stepped_calls = [c for x, c in enumerate(calls) if x == 0 or c[1] != calls[x - 1][1]]
        assert stepped_calls == run_calls and len(calls) == tr.r_end + 1
        calls.clear()
    assert found == finders


@pytest.mark.parametrize("m, n, k", [(6, 10, 3), (20, 50, 6), (21, 50, 6), (40, 80, 10)])
def test_stepping_reproduces_the_run(m, n, k):
    """`step_deterministic`, stepped r_end slots from the initial state with
    `np.random.default_rng(seed)`, gives `run_simulation`'s events on the
    slots that have any, its final masks and downloads, and the generator's
    next draw.  The stepper runs the instance's own SAP and PEF, so it
    steps the instance with the values the algorithm runs."""
    rng = seeded(57, m, n)
    downloads = cut = 0
    for sap, pef in ((0.25, 0.25), (0.5, 1.0), (1.0, 0.05)):
        inst = make_instance(m, n, k, rng, sap=sap, pef=pef)
        for algorithm in ("lspa", "pepa", "lfs"):
            seed = int(rng.integers(2**32))
            run_rng = np.random.default_rng(seed)
            tr = run_simulation(inst, algorithm, seed=run_rng)
            sap_run, pef_run = _run_values(inst, algorithm)
            stepped = dataclasses.replace(inst, sap=sap_run, pef=pef_run)
            state = SlotState.initial(stepped)
            step_rng = np.random.default_rng(seed)
            events = []
            for _ in range(tr.r_end):
                slot = state.slot
                ev = step_deterministic(state, stepped, step_rng)
                if not ev.is_empty:
                    events.append((slot, ev))
            assert not tr.truncated and tuple(events) == tr.events
            assert state.sets == tr.final.sets and state.downloads == tr.final.downloads
            assert step_rng.random() == run_rng.random()
            downloads += tr.total_downloads()
            cut += min(pef_run) < 1.0
    assert downloads > 0 and cut > 0


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 1000])
def test_nth_bit_matches_the_sorted_members(n):
    rng = seeded(51, n)
    for _ in range(30):
        x = SegmentSet.from_members(n, np.flatnonzero(rng.random(n) < rng.random())).mask
        members = [s for s in range(n) if x >> s & 1]
        for r, s in enumerate(members):
            assert strategies._nth_bit(x, r, n) == s


def test_slot_kernel_without_edges():
    for m in (1, 2, 7):
        union = np.full((m, m), 3)
        gt = np.zeros((m, m), dtype=bool)
        assert _stable_pairs(union, gt, [1.0] * m) == []
        assert _stable_pairs(union, gt, [0.05] * m) == []


@pytest.mark.parametrize("n", [3, 64, 130])
def test_a_state_with_a_gt_pair_has_a_stable_pair(n):
    """A deterministic run ends when no stable pair is found and no node can
    download, which needs every state with a GT pair to have a stable pair:
    the globally first pair heads the lists of both its ends at any PEF, so
    every pair finder keeps it.  States repeat masks, so equal sets tie."""
    rng = seeded(56, n)
    states = repeated = 0
    for _ in range(300):
        st = kernel_test_state(rng, n, int(rng.integers(2, 30)))
        masks = [s.mask for s in st.sets]
        edges = strategies._int_edges(masks, n)
        if not edges:
            continue
        states += 1
        repeated += len(set(masks)) < st.m
        union, gt = _union_gt(_mask_matrix(masks, n))
        for pef in (0.0, 0.05, 0.5, 1.0):
            pefs = (pef,) * st.m
            assert strategies._int_pairs(edges, pefs)
            assert _key_pairs(masks, n, pefs)
            assert _stable_pairs(union, gt, pefs)
    assert states > 200 and repeated > 100


def test_slot_kernel_union_sizes_beyond_16_bits():
    # Union sizes run from 4 up to n = 70,000, with a tie at 70,000 and
    # pairs on both sides of 65,536.  A sort key narrowed to 16 bits puts
    # (0, 1) at U = 4 ahead of (0, 2) at U = 29,992 and pairs 0 with 1.
    n = 70_000

    def span(a, b):
        return SegmentSet(n, ((1 << (b - a)) - 1) << a)

    sets = [
        span(0, 2),
        span(2, 4),
        span(10, 30_000),
        span(35_000, 70_000),
        span(0, 40_000),
        span(0, 36_000),
    ]
    st = SlotState(slot=1, sets=sets, downloads=[0] * len(sets))
    union, gt = _union_gt(_mask_matrix([s.mask for s in sets], n))
    sizes = union[gt]
    assert sizes.min() < 65_536 < sizes.max() == n
    assert np.count_nonzero(sizes == n) > 2  # ties at the top (each pair twice)
    assert _stable_pairs(union, gt, [1.0] * 6) == [(0, 2), (3, 4)]
    for pefs in ([1.0] * 6, [0.05] * 6, [0.5, 1.0, 0.05, 0.3, 1.0, 0.5]):
        assert _stable_pairs(union, gt, pefs) == greedy_pairs(st, pefs)
        assert _key_pairs([s.mask for s in sets], n, pefs) == greedy_pairs(st, pefs)


# ---------------------------------------------------------------------------
# the mask matrix and its union sizes


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_mask_matrix_round_trip(n):
    """Words are little-endian 64-bit slices of the mask, bit 63 of a word
    and the full universe included; the matrix is only read."""
    rng = seeded(49, n)
    words = -(-n // 64)
    full = (1 << n) - 1
    masks = [0, full, 1, 1 << (n - 1)]
    masks += [1 << (64 * w + 63) for w in range(words) if 64 * w + 63 < n]
    masks += [full & ((1 << 64) - 1) << (64 * w) for w in range(words)]
    masks += [int.from_bytes(rng.bytes(8 * words), "little") & full for _ in range(6)]
    sets = [SegmentSet(n, mk) for mk in masks]
    matrix = _mask_matrix(masks, n)
    assert matrix.dtype == np.uint64 and matrix.shape == (len(sets), words)
    assert matrix.tolist() == [
        [mk >> (64 * w) & ((1 << 64) - 1) for w in range(words)] for mk in masks
    ]
    assert matrix_sets(matrix, n) == sets
    assert not matrix.flags.writeable


@pytest.mark.parametrize("n", [1, 64, 65, 192, 193, 255, 256, 257])
def test_union_sizes_match_popcount_in_a_narrow_unsigned_dtype(n):
    """U equals the popcount of each union, in the narrowest unsigned dtype
    that holds 64*W, without wrapping at U = n = 256."""
    rng = seeded(50, n)
    full = (1 << n) - 1
    words = -(-n // 64)
    masks = [0, full, full >> 1, 1]
    masks += [int.from_bytes(rng.bytes(8 * words), "little") & full for _ in range(8)]
    union = _union_sizes(_mask_matrix(masks, n))
    assert union.dtype.kind == "u"
    assert union.dtype == np.min_scalar_type(64 * words)
    assert union.tolist() == [[(a | b).bit_count() for b in masks] for a in masks]
    assert int(union.max()) == n


# ---------------------------------------------------------------------------
# full runs: pinned outcomes


def test_run_two_nodes_lfs():
    inst = Instance.build(2, [[0], [1]])
    tr = run_simulation(inst, "lfs", seed=0)
    assert tr.r_end == 1 and not tr.truncated
    assert tr.aggregate() == 4
    assert tr.total_downloads() == 0
    assert tr.event_log() == "slot 1: exchange 0 1"


def test_run_three_nodes_lfs_stalls():
    inst = Instance.build(2, [[0], [1], [0]])
    tr = run_simulation(inst, "lfs", seed=0)
    assert tr.r_end == 1 and not tr.truncated
    assert tr.aggregate() == 5  # node 2 ends as a strict subset, nothing to trade
    assert build_exchange_graph(tr.final).is_empty


def test_run_three_nodes_lspa_downloads():
    inst = Instance.build(2, [[0], [1], [0]], sap=1.0)
    tr = run_simulation(inst, "lspa", seed=0)
    assert tr.r_end == 1 and not tr.truncated
    assert tr.aggregate() == 6
    assert tr.total_downloads() == 1
    assert tr.event_log() == "slot 1: exchange 0 1\nslot 1: download 2 1"


def test_run_already_quiescent():
    inst = Instance.build(2, [[0], [0, 1]])
    tr = run_simulation(inst, "lfs", seed=0)
    assert tr.r_end == 0 and not tr.truncated
    assert tr.events == ()
    assert tr.aggregate() == 3


def test_run_too_large_is_refused_before_any_array(monkeypatch):
    """The estimate of lspa, pepa and lfs refuses m = 20,000 (about 7.8
    GiB) and keeps the benchmark's m = 200; a randomized run at m = 20,000
    holds no (m, m) array and fits.  Every run and the deterministic
    stepper check their estimate before they build an array, shown here
    with the limit lowered below a tiny run."""
    for algorithm in ("lspa", "pepa", "lfs"):
        with pytest.raises(InvalidParameterError, match="m=20000, n=100 may hold 8012 MiB"):
            strategies.require_engine_fits(20_000, 100, algorithm)
    for algorithm in ALGORITHMS:
        strategies.require_engine_fits(200, 100, algorithm)
    strategies.require_engine_fits(20_000, 100, "randomized")

    monkeypatch.setattr(model, "MAX_BYTES", 1)
    monkeypatch.setattr(strategies, "_union_sizes", None)  # any (m, m) array fails here
    inst = Instance.build(2, [[0], [1], [0]], sap=0.5)
    for algorithm in ALGORITHMS:
        with pytest.raises(InvalidParameterError, match="MiB"):
            run_simulation(inst, algorithm, seed=0)
    state = SlotState.initial(inst)
    with pytest.raises(InvalidParameterError, match="MiB"):
        step_deterministic(state, inst, seeded(0))
    assert state == SlotState.initial(inst)


def paired_chain(levels: int) -> Instance:
    """2 * `levels` nodes over as many segments in which every node has one
    GT partner: level l holds {0..2l-1} plus 2l or plus 2l+1, so the two
    sets of a level are incomparable and nest in every set above them."""
    sets = []
    for level in range(levels):
        below = list(range(2 * level))
        sets += [below + [2 * level], below + [2 * level + 1]]
    return Instance.build(2 * levels, sets)


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of calling `run()` after one warm-up
    call, so that lazy imports and first-call caches are not counted."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_randomized_run_peaks_within_its_estimate(monkeypatch):
    """A randomized run holds its masks and one chunk of picks: with every
    node live and a mutual GT pick rare, its blocks reach full `_CHUNK`-row
    chunks in which almost every column is searched, the most one chunk
    holds, and the run's peak stays below `engine_bytes` but near it."""
    drawn = []
    draw_words = strategies._draw_words

    def counting(rng, slots, m):
        rows = draw_words(rng, slots, m)
        drawn.append((slots, rows.dtype))
        return rows

    monkeypatch.setattr(strategies, "_draw_words", counting)
    inst = paired_chain(150)
    peak = traced_peak(lambda: run_simulation(inst, "randomized", seed=1, max_slots=20_000))
    assert (strategies._CHUNK, np.uint32) in drawn
    estimate = strategies.engine_bytes(inst.m, inst.n, "randomized")
    assert 0.9 * estimate < peak <= estimate


def test_word_draw_peaks_within_the_randomized_estimate(monkeypatch):
    """One 1,024-row draw at m = 2,000 expects 0.88 rejected words.  With
    and without one, and so with and without replacement reads, the draw
    holds less than `engine_bytes`' 20 bytes per pick: its words, and the
    rejection check and the moves a `_PIECE` at a time (4.07 and 4.14
    bytes per pick measured)."""
    m = 2000
    reads = []
    words = strategies._words

    def counting(rng, count):
        reads.append(count)
        return words(rng, count)

    monkeypatch.setattr(strategies, "_words", counting)
    peaks = {}
    for seed in range(20):
        reads.clear()
        _draw_words(seeded(69, seed), 1024, m)
        replaced = len(reads) > 1
        if replaced not in peaks:
            peaks[replaced] = traced_peak(lambda: _draw_words(seeded(69, seed), 1024, m))
    assert set(peaks) == {False, True}
    assert max(peaks.values()) <= 20 * 1024 * m
    assert max(peaks.values()) < 5 * 1024 * m


@pytest.mark.parametrize("n, k", [(20, 4), (300, 30)])
@pytest.mark.parametrize("pef", [1.0, 0.5])
def test_matrix_search_peaks_within_its_estimate(n, k, pef):
    """One search of the mask matrix at m = 300, with and without cut rows
    (which sort int64 keys), peaks below the estimate of lspa, pepa and
    lfs, and above half of it."""
    masks = [s.mask for s in make_instance(300, n, k, seeded(66, n)).initial_sets]
    peak = traced_peak(lambda: _matrix_pairs(masks, n, (pef,) * 300))
    estimate = strategies.engine_bytes(300, n, "lfs")
    assert 0.5 * estimate < peak <= estimate


@pytest.mark.parametrize("finder", FINDERS)
@pytest.mark.parametrize("n", [50, 2048])
@pytest.mark.parametrize("pef", [1.0, 0.5])
def test_small_searches_peak_within_their_estimate(finder, n, pef):
    """One search of each pair finder at m = 20, with W = 1 and W = 32
    words, with and without cut rows, peaks within the estimate of lspa,
    pepa and lfs, which is an upper bound up to `_INT_MAX_M` nodes."""
    rng = seeded(67, n)
    masks = [int.from_bytes(rng.bytes(n // 8), "little") & int.from_bytes(rng.bytes(n // 8), "little")
             for _ in range(20)]
    assert len(set(masks)) == 20
    pefs = (pef,) * 20
    union, gt = _union_gt(_mask_matrix(masks, n))
    assert (_listed(union, gt, pefs) is gt) == (pef == 1.0)  # 0.5 cuts a row
    if finder == "_int_pairs":
        def search():
            return strategies._int_pairs(strategies._int_edges(masks, n), pefs)
    else:
        def search():
            return getattr(strategies, finder)(masks, n, pefs)
    assert search()
    assert traced_peak(search) <= strategies.engine_bytes(20, n, "lspa")


def test_randomized_paths_build_no_mask_matrix(monkeypatch):
    """The randomized run, its stepper and the trajectory hold Python-int
    masks: none of them builds the mask matrix or its (m, m) union sizes."""
    inst = make_instance(20, 50, 6, seeded(62))
    want = run_simulation(inst, "randomized", seed=3)
    monkeypatch.setattr(strategies, "_mask_matrix", None)
    monkeypatch.setattr(strategies, "_union_sizes", None)
    tr = run_simulation(inst, "randomized", seed=3)
    assert (tr.events, tr.r_end, tr.final) == (want.events, want.r_end, want.final)
    assert tr.events and not tr.truncated
    state = SlotState.initial(inst)
    rng = seeded(63)
    exchanged = sum(len(step_randomized(state, inst, rng).activations) for _ in range(200))
    assert exchanged > 0 and state.slot == 201
    assert len(randomized_trajectory(inst, 50, seed=3)) == 50


def test_unknown_algorithm_rejected():
    inst = Instance.build(2, [[0], [1]])
    with pytest.raises(InvalidParameterError):
        run_simulation(inst, "greedy", seed=0)


# ---------------------------------------------------------------------------
# truncation


def test_truncation_deterministic():
    inst = Instance.build(3, [[0], [1], [2]])
    tr = run_simulation(inst, "lfs", seed=0, max_slots=1)
    assert tr.truncated and tr.r_end == 1
    full = run_simulation(inst, "lfs", seed=0)
    assert not full.truncated and full.aggregate() == 9 - 1  # odd node out stays at 2


def test_truncation_randomized():
    inst = Instance.build(3, [[0], [1], [2]])
    # one slot can complete at most one pair, so the cap always bites
    for seed in range(5):
        tr = run_simulation(inst, "randomized", seed=seed, max_slots=1)
        assert tr.truncated and tr.r_end == 1


def can_still_act(tr, algorithm) -> bool:
    """Some pair satisfies GT, or (lspa only) a deficient node's SAP is
    not zero."""
    sets = tr.final.sets
    if any(gt_satisfied(a, b) for a, b in combinations(sets, 2)):
        return True
    return algorithm == "lspa" and any(
        not s.is_full and sap != 0.0 for s, sap in zip(sets, tr.instance.sap)
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cap_boundary(algorithm):
    """A cap of exactly r_end changes nothing and one slot less truncates
    (the randomized engine sizes its blocks by the cap, so a capped run
    follows another stream and only stays within the cap); `truncated`
    holds exactly when the final state can still act, and the final slot
    is always r_end + 1."""
    rng = seeded(43)
    for _ in range(40):
        inst = random_valid_instance(rng, max_m=7, max_n=7, sap=0.5, pef=0.5)
        full = run_simulation(inst, algorithm, seed=5)
        assert not full.truncated
        runs = [full]
        for cap in (full.r_end, full.r_end - 1, full.r_end // 2):
            if cap < 0:
                continue
            tr = run_simulation(inst, algorithm, seed=5, max_slots=cap)
            if algorithm == "randomized":
                assert tr.r_end <= cap and tr.truncated <= (tr.r_end == cap)
            else:
                assert tr.r_end == cap and tr.truncated == (cap < full.r_end)
                if cap == full.r_end:
                    assert tr.events == full.events
            runs.append(tr)
        for tr in runs:
            assert tr.truncated == can_still_act(tr, algorithm)
            assert tr.final.slot == tr.r_end + 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("cap", [-5, -1, 2.5, 3.0, np.float64(2.0), True, "3"])
def test_bad_slot_caps_rejected(algorithm, cap):
    inst = Instance.build(3, [[0], [1], [2]])
    with pytest.raises(InvalidParameterError, match="max_slots"):
        run_simulation(inst, algorithm, seed=0, max_slots=cap)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_zero_and_numpy_slot_caps(algorithm):
    inst = Instance.build(3, [[0], [1], [2]])
    tr = run_simulation(inst, algorithm, seed=0, max_slots=0)
    assert tr.truncated and tr.r_end == 0 and tr.final.slot == 1 and tr.events == ()
    tr = run_simulation(inst, algorithm, seed=0, max_slots=np.int64(1))
    assert tr.truncated and type(tr.r_end) is int and tr.r_end == 1 and tr.final.slot == 2


@pytest.mark.parametrize("sap", [1.5, float("nan"), -0.5])
def test_sap_outside_unit_interval_raises(sap):
    # node 2 is left unmatched and deficient in slot 1, so lspa reads its SAP
    inst = Instance.build(2, [[0], [1], [0]], sap=sap)
    assert "sap" in validate_instance(inst)
    with pytest.raises(ValueError, match="sap"):
        run_simulation(inst, "lspa", seed=0)
    for algorithm in ("pepa", "lfs"):
        tr = run_simulation(inst, algorithm, seed=0)
        assert not tr.truncated and tr.events[0] == (1, strategies.SlotEvents(((0, 1),), ()))


def test_pef_outside_unit_interval_raises_where_a_run_starts():
    inst = Instance.build(2, [[0], [1]], pef=[1.0, 1.5])
    for algorithm in ("lspa", "pepa"):
        with pytest.raises(ValueError, match="pef"):
            run_simulation(inst, algorithm, seed=0)
    state = SlotState.initial(inst)
    with pytest.raises(ValueError, match="pef"):
        step_deterministic(state, inst, seeded(0))
    assert state == SlotState.initial(inst)
    assert run_simulation(inst, "lfs", seed=0).events == ((1, strategies.SlotEvents(((0, 1),), ())),)


def test_sap_outside_unit_interval_raises_on_a_node_that_never_downloads():
    # node 1 is matched in slot 1 and full after it, so the engine never
    # reads its SAP; the run is still refused before any slot
    inst = Instance.build(2, [[0], [1]], sap=[0.0, 1.5])
    with pytest.raises(ValueError, match="node 1 sap"):
        run_simulation(inst, "lspa", seed=0)
    with pytest.raises(ValueError, match="sap"):
        step_deterministic(SlotState.initial(inst), inst, seeded(0))


# ---------------------------------------------------------------------------
# determinism and algorithm aliases


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runs_are_reproducible(algorithm):
    rng = seeded(33)
    for _ in range(10):
        inst = random_valid_instance(rng, max_m=6, max_n=6, sap=0.4, pef=0.6)
        a = run_simulation(inst, algorithm, seed=7)
        b = run_simulation(inst, algorithm, seed=7)
        assert a.events == b.events
        assert a.r_end == b.r_end and a.truncated == b.truncated
        assert [s.mask for s in a.final.sets] == [s.mask for s in b.final.sets]
        assert a.final.downloads == b.final.downloads


def test_pepa_is_lspa_without_downloads():
    rng = seeded(34)
    for _ in range(20):
        inst = random_valid_instance(rng, sap=0.0, pef=0.5)
        a = run_simulation(inst, "lspa", seed=3)
        b = run_simulation(inst, "pepa", seed=3)
        assert a.events == b.events and a.r_end == b.r_end
        assert [s.mask for s in a.final.sets] == [s.mask for s in b.final.sets]


def test_lfs_is_pepa_with_full_lists():
    rng = seeded(35)
    for _ in range(20):
        inst = random_valid_instance(rng, sap=0.7, pef=1.0)  # sap ignored by both
        a = run_simulation(inst, "pepa", seed=3)
        b = run_simulation(inst, "lfs", seed=3)
        assert a.events == b.events and a.r_end == b.r_end
        assert [s.mask for s in a.final.sets] == [s.mask for s in b.final.sets]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_event_ids_are_python_ints(algorithm):
    step = step_randomized if algorithm == "randomized" else step_deterministic
    rng = seeded(46)
    ids = []
    for _ in range(10):
        inst = random_valid_instance(rng, sap=0.5, pef=0.6)
        tr = run_simulation(inst, algorithm, seed=3)
        state = SlotState.initial(inst)
        stepped = [(state.slot, step(state, inst, rng)) for _ in range(3)]
        for slot, ev in tr.events + tuple(stepped):
            ids += [slot] + [x for pair in ev.activations + ev.downloads for x in pair]
    assert len(ids) > 100
    assert all(type(x) is int for x in ids)


# ---------------------------------------------------------------------------
# run invariants


def test_event_log_reconstructs_final_state():
    rng = seeded(36)
    for algorithm in ALGORITHMS:
        for _ in range(15):
            inst = random_valid_instance(rng, max_m=6, max_n=6, sap=0.3, pef=0.7)
            tr = run_simulation(inst, algorithm, seed=11)
            _, masks = replay(tr)
            assert masks == [s.mask for s in tr.final.sets]


def test_universe_holder_count_stays_even_without_downloads():
    rng = seeded(37)
    for algorithm in ("pepa", "lfs", "randomized"):
        for _ in range(70):
            inst = random_valid_instance(rng, max_m=7, max_n=6, pef=0.6)
            tr = run_simulation(inst, algorithm, seed=13)
            counts, _ = replay(tr)
            assert all(c % 2 == 0 for c in counts)


def test_downloads_never_exceed_missing_segments():
    rng = seeded(38)
    for _ in range(40):
        inst = random_valid_instance(rng, sap=0.8, pef=0.5)
        tr = run_simulation(inst, "lspa", seed=17)
        for i, d in enumerate(tr.final.downloads):
            assert d <= inst.n - len(inst.initial_sets[i])


def test_active_nodes_never_download_in_same_slot():
    rng = seeded(39)
    for _ in range(40):
        inst = random_valid_instance(rng, sap=1.0, pef=0.4)
        tr = run_simulation(inst, "lspa", seed=19)
        for _, ev in tr.events:
            active = {x for pair in ev.activations for x in pair}
            assert active.isdisjoint(i for i, _ in ev.downloads)
        # matched pairs are disjoint within a slot
        for _, ev in tr.events:
            flat = [x for pair in ev.activations for x in pair]
            assert len(flat) == len(set(flat))


def test_full_sap_fills_everyone_quickly():
    rng = seeded(40)
    for _ in range(30):
        inst = random_valid_instance(rng, sap=1.0, pef=0.5)
        cap = inst.n * inst.m + inst.n
        tr = run_simulation(inst, "lspa", seed=23, max_slots=cap)
        assert not tr.truncated
        assert tr.aggregate() == inst.n * inst.m


def test_valid_instances_start_with_exchanges_available():
    rng = seeded(41)
    for _ in range(500):
        inst = random_valid_instance(rng)
        assert not build_exchange_graph(SlotState.initial(inst)).is_empty


def test_randomized_never_downloads_and_drains_the_graph():
    rng = seeded(42)
    for _ in range(40):
        inst = random_valid_instance(rng, max_m=6, max_n=6)
        tr = run_simulation(inst, "randomized", seed=29)
        assert not tr.truncated
        assert tr.total_downloads() == 0
        assert all(ev.downloads == () for _, ev in tr.events)
        assert build_exchange_graph(tr.final).is_empty


def test_deterministic_runs_end_drained():
    rng = seeded(43)
    for algorithm in ("lfs", "pepa"):
        for _ in range(25):
            inst = random_valid_instance(rng, pef=0.3)
            tr = run_simulation(inst, algorithm, seed=31)
            assert not tr.truncated
            assert build_exchange_graph(tr.final).is_empty
            assert tr.final.slot == tr.r_end + 1


def test_blocked_randomized_matches_naive_stepping_law():
    """The blocked engine discards unused draws, so seed-for-seed equality with
    naive stepping is not expected; terminal support must agree though."""
    inst = Instance.build(3, [[0], [1], [0, 2]])
    finals_naive = set()
    finals_blocked = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        state = SlotState.initial(inst)
        while not build_exchange_graph(state).is_empty:
            step_randomized(state, inst, rng)
        finals_naive.add(tuple(s.mask for s in state.sets))
        tr = run_simulation(inst, "randomized", seed=seed)
        finals_blocked.add(tuple(s.mask for s in tr.final.sets))
    assert finals_blocked == finals_naive


# ---------------------------------------------------------------------------
# trajectories


def test_randomized_trajectory_shape():
    inst = Instance.build(6, [[0, 1], [2, 3], [4, 5], [0, 2]], k=2)
    traj = randomized_trajectory(inst, 12, seed=5)
    assert len(traj) == 12
    assert traj[0] == 2.0
    assert all(a <= b for a, b in zip(traj, traj[1:]))
    assert traj[-1] <= inst.n
    assert traj == randomized_trajectory(inst, 12, seed=5)


def test_randomized_trajectory_epoch_domain():
    inst = Instance.build(2, [[0], [1]])
    with pytest.raises(InvalidParameterError):
        randomized_trajectory(inst, 0)
    assert randomized_trajectory(inst, 1, seed=0) == [1.0]
