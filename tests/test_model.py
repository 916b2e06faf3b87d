import json

import numpy as np
import pytest

from segswap import model
from segswap.model import (
    GenerationError,
    Instance,
    InvalidParameterError,
    SegmentSet,
    SlotState,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    make_instance,
    per_node_values,
    universe_mask,
    validate_instance,
)

from conftest import seeded


# ---------------------------------------------------------------------------
# SegmentSet


def test_segment_set_basics():
    s = SegmentSet.from_members(4, [0, 2])
    assert s.members() == (0, 2)
    assert len(s) == 2
    assert not s.is_empty and not s.is_full
    assert repr(s) == "SegmentSet({0, 2}, n=4)"
    # duplicate members collapse
    assert SegmentSet.from_members(3, [1, 1, 2]).mask == 0b110


def test_segment_set_full_and_empty():
    assert SegmentSet(3, universe_mask(3)).is_full
    assert SegmentSet(3).is_empty
    assert not SegmentSet(3, 0b101).is_full
    assert SegmentSet(0, 0).is_full  # empty universe: vacuously full


def test_segment_set_domain_errors():
    with pytest.raises(InvalidParameterError):
        SegmentSet(-1)
    with pytest.raises(InvalidParameterError):
        SegmentSet(2, 0b100)
    with pytest.raises(InvalidParameterError):
        SegmentSet(2, -1)
    with pytest.raises(InvalidParameterError):
        SegmentSet.from_members(2, [2])


@pytest.mark.parametrize("member", [0.7, 1.0, True, False, "1", None])
def test_segment_set_members_are_not_coerced(member):
    with pytest.raises(InvalidParameterError):
        SegmentSet.from_members(2, [member])
    with pytest.raises(InvalidParameterError):
        Instance.build(2, [[member], [1]])


def test_segment_set_accepts_numpy_integer_members():
    members = np.array([0, 2], dtype=np.int32)
    assert SegmentSet.from_members(3, members).mask == 0b101
    assert SegmentSet.from_members(3, [np.int64(1), np.uint8(2)]).mask == 0b110
    with pytest.raises(InvalidParameterError):
        SegmentSet.from_members(3, [np.bool_(True)])
    with pytest.raises(InvalidParameterError):
        SegmentSet.from_members(3, [np.float64(1.0)])


def test_universe_mask():
    assert universe_mask(0) == 0
    assert universe_mask(3) == 0b111


# ---------------------------------------------------------------------------
# Per-node values and utilities


def test_per_node_values():
    assert per_node_values(0.25, 3, "sap") == (0.25, 0.25, 0.25)
    assert per_node_values([0.0, 1.0], 2, "pef") == (0.0, 1.0)
    assert per_node_values((0.5, 1), 2, "pef") == (0.5, 1.0)
    with pytest.raises(InvalidParameterError, match="sap"):
        per_node_values([0.0, 1.0], 3, "sap")


def test_per_node_values_are_not_coerced():
    for v in (np.float32(0.5), np.float64(0.5), np.int64(1), 1, 0.25):
        values = per_node_values(v, 2, "sap")
        assert values == (float(v),) * 2 and all(type(x) is float for x in values)
        assert per_node_values([v, 0.0], 2, "sap") == (float(v), 0.0)
    for v in ("0.5", True, np.bool_(False), None, [0.5], lambda r: 0.5):
        with pytest.raises(InvalidParameterError, match="pef"):
            per_node_values(v, 2, "pef")
        with pytest.raises(InvalidParameterError, match="pef"):
            per_node_values([0.0, v], 2, "pef")
    with pytest.raises(InvalidParameterError):
        Instance.build(2, [[0], [1]], sap="0.5")
    with pytest.raises(InvalidParameterError):
        Instance.build(2, [[0], [1]], pef=[1.0, False])


# ---------------------------------------------------------------------------
# Instance and SlotState


def test_instance_build():
    inst = Instance.build(3, [[0], [1], [0, 2]], sap=0.5, pef=0.25, k=1, seed=7)
    assert inst.m == 3 and inst.n == 3
    assert [s.mask for s in inst.initial_sets] == [0b001, 0b010, 0b101]
    assert inst.sap == (0.5, 0.5, 0.5)
    assert inst.pef == (0.25, 0.25, 0.25)
    assert inst.k == 1 and inst.seed == 7


def test_instance_build_errors():
    with pytest.raises(InvalidParameterError):
        Instance.build(2, [])
    with pytest.raises(InvalidParameterError):
        Instance.build(2, [SegmentSet(3, 0b1)])


def test_slot_state():
    inst = Instance.build(2, [[0], [1]])
    st = SlotState.initial(inst)
    assert st.slot == 1 and st.m == 2
    assert st.aggregate() == 2 and st.total_downloads() == 0
    st.sets[0] = SegmentSet(2, 0b11)  # state owns a copy of the set list
    assert inst.initial_sets[0].mask == 0b01


# ---------------------------------------------------------------------------
# make_instance


def test_make_instance_forced_two_node():
    inst = make_instance(2, 2, 1, seeded(1))
    assert {s.mask for s in inst.initial_sets} == {0b01, 0b10}
    assert inst.k == 1


def test_make_instance_paper_scale():
    inst = make_instance(20, 50, 6, seeded(2))
    assert inst.m == 20 and inst.n == 50
    assert all(len(s) == 6 for s in inst.initial_sets)
    union = 0
    for s in inst.initial_sets:
        union |= s.mask
    assert union == universe_mask(50)
    assert validate_instance(inst) is None


def test_make_instance_guards():
    rng = seeded(3)
    with pytest.raises(InvalidParameterError):
        make_instance(1, 2, 1, rng)
    with pytest.raises(InvalidParameterError):
        make_instance(2, 2, 0, rng)
    with pytest.raises(InvalidParameterError):
        make_instance(2, 2, 2, rng)  # k = n would force full sets
    with pytest.raises(InvalidParameterError):
        make_instance(2, 4, 1, rng)  # m*k < n: two singletons cannot cover


def test_make_instance_generation_cap(monkeypatch):
    # Coverage at (2, 10, 5) needs the second set to be the exact complement
    # of the first (probability 1/252), so one attempt essentially never lands.
    monkeypatch.setattr(model, "_MAX_ATTEMPTS", 1)
    with pytest.raises(GenerationError, match="no covering draw in 1 attempts"):
        make_instance(2, 10, 5, seeded(4))


def test_make_instance_bit_reproducible():
    a = make_instance(6, 9, 3, seeded(5, 1))
    b = make_instance(6, 9, 3, seeded(5, 1))
    assert [s.mask for s in a.initial_sets] == [s.mask for s in b.initial_sets]
    c = make_instance(6, 9, 3, seeded(5, 2))
    assert [s.mask for s in a.initial_sets] != [s.mask for s in c.initial_sets]


def test_make_instance_uniform_over_k_subsets():
    # Conditioning on coverage keeps the per-set law symmetric in the
    # segments, so each of the C(5,2)=10 subsets stays equally likely.
    rng = seeded(6)
    counts: dict[int, int] = {}
    draws = 10_000
    for _ in range(draws):
        inst = make_instance(5, 5, 2, rng)
        for s in inst.initial_sets:
            counts[s.mask] = counts.get(s.mask, 0) + 1
    assert len(counts) == 10
    expected = draws * 5 / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 40.0  # chi-square, 9 dof; loose 5-sigma-class threshold


def reference_make_instance(m, n, k, rng, max_attempts=10_000):
    """The masks of the one-attempt-at-a-time loop that batched generation
    must reproduce; the state it leaves `rng` in is the reference state."""
    full = universe_mask(n)
    for _ in range(max_attempts):
        idx = np.argsort(rng.random((m, n)), axis=1)[:, :k]
        masks = []
        union = 0
        for row in idx:
            mask = 0
            for s in row:
                mask |= 1 << int(s)
            masks.append(mask)
            union |= mask
        if union == full:
            return masks
    raise GenerationError("reference loop found no covering draw")


def stream_contract_shapes():
    shapes = [(20, 50, 6), (30, 60, 5), (200, 20, 4), (2, 2, 1)]
    rng = seeded(30)
    while len(shapes) < 124:
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 13))
        lo = max(1, -(-n // m))
        if lo <= n - 1:
            shapes.append((m, n, int(rng.integers(lo, n))))
    return shapes


# 1 forces one attempt per batch; 150 and 7_000 cap batches at sizes that are
# not powers of two for many shapes, so doubling is cut mid-way.
GEN_BATCHES = [model._GEN_BATCH, 1, 150, 7_000]


@pytest.mark.parametrize("gen_batch", GEN_BATCHES)
def test_make_instance_matches_one_attempt_at_a_time(monkeypatch, gen_batch):
    """Same instances as the reference loop, and the same generator state
    after every call, with both sides sharing one generator per sequence."""
    monkeypatch.setattr(model, "_GEN_BATCH", gen_batch)
    batched, reference = seeded(31), seeded(31)
    for m, n, k in stream_contract_shapes():
        inst = make_instance(m, n, k, batched)
        assert [s.mask for s in inst.initial_sets] == reference_make_instance(
            m, n, k, reference), (m, n, k)
        assert batched.random() == reference.random(), (m, n, k)


# k = 1 and k = n-1 on universes that end before, on and just past a 64-bit
# word; m*n passes _GEN_BATCH at (300,63,1), (400,64,1), (400,65,1) and
# (200,129,3), so there every batch is one attempt.
EDGE_SHAPES = [(40, 8, 1), (2, 8, 7), (300, 63, 1), (2, 63, 62), (400, 64, 1),
               (2, 64, 63), (400, 65, 1), (2, 65, 64), (2, 129, 128), (200, 129, 3)]


def test_make_instance_matches_one_attempt_at_a_time_on_edge_shapes():
    assert max(m * n for m, n, _ in EDGE_SHAPES) > model._GEN_BATCH
    batched, reference = seeded(33), seeded(33)
    for _ in range(3):
        for m, n, k in EDGE_SHAPES:
            inst = make_instance(m, n, k, batched)
            assert [s.mask for s in inst.initial_sets] == reference_make_instance(
                m, n, k, reference), (m, n, k)
            assert all(len(s) == k for s in inst.initial_sets)
            assert batched.random() == reference.random(), (m, n, k)


@pytest.mark.parametrize("gen_batch", GEN_BATCHES)
def test_make_instance_exhaustion_matches_one_attempt_at_a_time(monkeypatch, gen_batch):
    """(2, 10, 5) covers with probability 1/252 per attempt, so 37 attempts
    fail on most seeds: both loops fail on the same seeds and stop at the
    same point of the stream."""
    monkeypatch.setattr(model, "_GEN_BATCH", gen_batch)
    monkeypatch.setattr(model, "_MAX_ATTEMPTS", 37)
    failed = 0
    for seed in range(40):
        batched, reference = seeded(32, seed), seeded(32, seed)
        try:
            expected = reference_make_instance(2, 10, 5, reference, max_attempts=37)
        except GenerationError:
            failed += 1
            with pytest.raises(GenerationError):
                make_instance(2, 10, 5, batched)
        else:
            inst = make_instance(2, 10, 5, batched)
            assert [s.mask for s in inst.initial_sets] == expected
        assert batched.random() == reference.random(), seed
    assert 0 < failed < 40


# ---------------------------------------------------------------------------
# validate_instance


def test_validate_instance_reports():
    assert validate_instance(Instance.build(2, [[0], [1]])) is None
    assert "full universe" in validate_instance(Instance.build(2, [[0, 1], [0]]))
    assert "union" in validate_instance(Instance.build(2, [[0], [0]]))
    assert "empty" in validate_instance(Instance.build(2, [[], [0, 1]]))
    assert "sap" in validate_instance(Instance.build(2, [[0], [1]], sap=1.5))
    bad_pef = Instance.build(2, [[0], [1]], pef=-0.1)
    assert "pef" in validate_instance(bad_pef)


def test_validate_instance_order():
    # first violation wins: empty set is reported before the coverage gap
    report = validate_instance(Instance.build(3, [[], [0], [0]]))
    assert "empty" in report


# ---------------------------------------------------------------------------
# serialization


def test_instance_round_trip():
    inst = make_instance(4, 6, 2, seeded(7), sap=0.25, pef=0.5, seed=99)
    doc = instance_to_dict(inst)
    assert doc["m"] == 4 and doc["n"] == 6 and doc["k"] == 2
    assert doc["sap"] == 0.25 and doc["pef"] == 0.5 and doc["seed"] == 99
    assert instance_from_dict(doc) == inst


def test_instance_round_trip_per_node_and_cost():
    inst = Instance.build(2, [[0], [1]], sap=[0.0, 1.0], pef=[0.5, 1.0])
    doc = instance_to_dict(inst)
    assert doc["sap"] == [0.0, 1.0] and doc["pef"] == [0.5, 1.0]
    assert instance_from_dict(doc) == inst


def test_instance_text_round_trip():
    inst = make_instance(3, 4, 2, seeded(8))
    text = dump_instance(inst)
    assert text.endswith("\n")
    assert load_instance(text) == inst
    assert json.loads(text)["initial_sets"] == [list(s.members()) for s in inst.initial_sets]


def test_instance_from_dict_m_mismatch():
    doc = instance_to_dict(Instance.build(2, [[0], [1]]))
    doc["m"] = 3
    with pytest.raises(InvalidParameterError):
        instance_from_dict(doc)


def test_callable_sap_refused_by_build():
    with pytest.raises(InvalidParameterError, match="sap"):
        Instance.build(2, [[0], [1]], sap=lambda r: 0.5)
    with pytest.raises(InvalidParameterError, match="sap"):
        Instance.build(2, [[0], [1]], sap=[0.5, lambda r: 0.5])


@pytest.mark.parametrize(
    "change",
    [{"bogus": 1}, {"seed": "x"}, {"seed": 1.0}, {"k": True}, {"m": 2.0}, {"n": 2.0},
     {"initial_sets": [[0], [1.0]]}, {"sap": "0.5"}, {"pef": True},
     {"sap": [0.1, "0.2"]}, {"cost_per_download": 2.5}, {"seed": None}, {"k": None},
     {"utility": "cardinality"}],
)
def test_instance_from_dict_is_strict(change):
    doc = instance_to_dict(Instance.build(2, [[0], [1]], k=1, seed=3))
    with pytest.raises(InvalidParameterError):
        instance_from_dict({**doc, **change})


def test_instance_from_dict_defaults():
    inst = instance_from_dict({"n": 2, "initial_sets": [[0], [1]]})
    assert inst.m == 2
    assert inst.sap == (0.0, 0.0) and inst.pef == (1.0, 1.0)
