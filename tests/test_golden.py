"""Golden digests: the sha256 of the CSV of small fixed sweeps, of the
randomized trajectory and one-slot stepper on fixed instances, and of the
oracle's results on fixed instances.

The digests were generated once from each engine before its mask-matrix
rewrite (randomized-m80 before the chunked pick draw, the instance sequence
before batched generation); any change to them means the RNG stream, the
event order or the CSV format changed, which the reproducibility contract
forbids without a version bump.  The sweeps cover every algorithm, SAP downloads with
truncated preference lists, a run cut off by max_slots, the exact-oracle
column, universes that end exactly on, or just past, a 64-bit word,
randomized blocks longer than one chunk of picks, and union sizes past 255
(16-bit U) at m >= 100 and in rows cut by PEF.  lfs-m120-n300 and lspa-n260
were generated before union sizes were narrowed from int64.

The oracle digest pins `witness` and `states_explored` as well as
`alpha_star`, so it moves whenever the search's visit order does; it was
recorded with the exchanges tried by ascending union size.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from segswap.harness import (
    Scenario,
    emit_results,
    manifest_path,
    run_and_emit,
    run_scenario,
)
from segswap import strategies
from segswap.model import SlotState, dump_instance, make_instance
from segswap.oracle import optimal_aggregate
from segswap.strategies import randomized_trajectory, step_randomized

from conftest import rand_small_instance, seeded

GOLDEN = {
    "lspa-grid": (
        {"m": 8, "n": 12, "k": 3, "algorithm": "lspa", "sap": [0.0, 0.4, 1.0],
         "pef": [0.2, 0.6, 1.0], "trials": 3, "seed": 11},
        "6d78b2bfdbfebd434b10d52e38a6d1590c2cb9de391734a1b75b620f4214e5d4",
    ),
    "pepa-oracle": (
        {"m": 5, "n": 8, "k": 2, "algorithm": "pepa", "pef": [0.3, 1.0], "trials": 4,
         "seed": 12, "oracle": True},
        "82a718f40e1c9e0cd424d9b3bdfe1fded39f127af30879b2a3d70c99c3ca8cde",
    ),
    "lfs-n65": (
        {"m": 30, "n": 65, "k": 12, "algorithm": "lfs", "trials": 4, "seed": 13},
        "2231b792cd02b6a7fdb5444d5d376c2a42e79ca5e76e019dd7de9b1601b371e7",
    ),
    "pepa-n130": (
        {"m": 24, "n": 130, "k": 30, "algorithm": "pepa", "pef": [0.4], "trials": 3,
         "seed": 14},
        "fa244cbad3368afcda42895560401261ceadd7aadea7c2ea474fe23ed51c238f",
    ),
    "lspa-n64": (
        {"m": 20, "n": 64, "k": 12, "algorithm": "lspa", "sap": [0.3],
         "pef": [0.05, 0.5], "trials": 3, "seed": 15},
        "e04ee318d5b9ddbca04e7dcfdcfb20e80c614603483e387d292351f928c8715e",
    ),
    "randomized": (
        {"m": 9, "n": 10, "k": 2, "algorithm": "randomized", "trials": 4, "seed": 16},
        "71b712efed2f66c8c2507e31aa90a4a723713efc2a3fe27c9787b8e7e9684c9c",
    ),
    "lspa-truncated": (
        {"m": 10, "n": 20, "k": 3, "algorithm": "lspa", "sap": [0.2], "pef": [0.5],
         "trials": 3, "seed": 17, "max_slots": 2},
        "de197ecd804621e0f2b618f222c45490cc7cea733a442e2728ea3408623fdfcc",
    ),
    "randomized-n130": (
        {"m": 12, "n": 130, "k": 30, "algorithm": "randomized", "trials": 3, "seed": 18},
        "8a07afc54b73c3fff25d200fef879ac37f012aec78b3f418e63727deb2b49b81",
    ),
    "randomized-m80": (
        {"m": 80, "n": 6, "k": 2, "algorithm": "randomized", "trials": 3, "seed": 21},
        "48f801031553916b91483d1ae135b404523e0b87195ff13e6bd0c9f2e6def316",
    ),
    "lfs-m120-n300": (
        {"m": 120, "n": 300, "k": 40, "algorithm": "lfs", "trials": 2, "seed": 24},
        "2f5f1dc3f3f9c7ef855f5d77f5debd8751a1f22406dbabe30f68a02701e94386",
    ),
    "lspa-n260": (
        {"m": 40, "n": 260, "k": 30, "algorithm": "lspa", "sap": [0.3], "pef": [0.5],
         "trials": 2, "seed": 25},
        "ab1d649534ed95122eede2c4ac4abbe24aba2a19152ffdd18f5d7c600525508f",
    ),
}

# (m, n, k) of the fixed instances for the trajectory and stepper digests:
# one word, two words, three words.
STEP_SIZES = ((9, 10, 2), (20, 70, 12), (12, 130, 30))
# Shapes of the generated-instance sequence, drawn three times over from one
# shared generator.  (30,60,5), (2,10,5) and (12,130,30) usually need over
# 100 attempts, (200,20,4) and (5,5,2) usually one.
INSTANCE_SHAPES = ((20, 50, 6), (2, 2, 1), (30, 60, 5), (5, 5, 2), (2, 10, 5),
                   (200, 20, 4), (6, 9, 3), (8, 12, 3), (3, 6, 2), (12, 130, 30))
# Regenerated when instance JSON lost its "utility" key: the SHA-256 of the
# old text with every `  "utility": "cardinality",` line removed.
INSTANCE_SEQUENCE_DIGEST = "182845e23f1e5bb335d2f4741b6b9689417a45275c9755e4b09f3a44ba576a25"
TRAJECTORY_DIGEST = "34e5384d71df0386a3d6adf3e76bed61b1874cb60e24afcefb648848807012a0"
STEPPER_DIGEST = "b86bb50c3b61de50e9d3d2448ca3011f987fba20e9b0b06d72c75f579374aec7"
ORACLE_DIGEST = "d4312fb1b1c18953c657ac80446d61d46814f51b5cf9ce5e8b5de1c3c0489e12"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_csv_matches_golden_digest(name):
    doc, digest = GOLDEN[name]
    records = run_scenario(Scenario.from_dict(doc))
    assert sha256(emit_results(records, format="csv")) == digest


def test_golden_sweeps_cover_what_they_claim():
    rows = {name: run_scenario(Scenario.from_dict(doc)) for name, (doc, _) in GOLDEN.items()}
    assert all(r.truncated for r in rows["lspa-truncated"])
    assert any(r.downloads for r in rows["lspa-grid"])
    assert any(r.poc_exact is not None for r in rows["pepa-oracle"])
    assert {doc["algorithm"] for doc, _ in GOLDEN.values()} == {
        "lspa", "pepa", "lfs", "randomized"}


def test_wide_sweeps_run_16_bit_union_sizes(monkeypatch):
    """lfs-m120-n300 (m = 120) and lspa-n260 rank pairs on 16-bit union
    sizes above 255, and lspa-n260 cuts rows, whose keys -U*m need int64.
    Both run above 20 nodes, where each finder ranks on the U that
    `_union_gt` builds over the slot's distinct masks; a cut row only
    reaches `_stable_pairs`, on the U of the nodes."""
    unions = []
    cuts = []
    union_gt = strategies._union_gt
    stable_pairs = strategies._stable_pairs

    def recording_union(masks):
        union, gt = union_gt(masks)
        unions.append((union.dtype, int(union.max())))
        return union, gt

    def recording(union, gt, pef):
        deg = gt.sum(axis=1)
        cut = np.maximum(1, np.floor(np.array(pef) * deg)) < deg
        cuts.append((union.dtype, bool(cut.any())))
        return stable_pairs(union, gt, pef)

    monkeypatch.setattr(strategies, "_union_gt", recording_union)
    monkeypatch.setattr(strategies, "_stable_pairs", recording)
    for name in ("lfs-m120-n300", "lspa-n260"):
        unions.clear()
        run_scenario(Scenario.from_dict(GOLDEN[name][0]))
        assert {dtype for dtype, _ in unions} == {np.dtype(np.uint16)}, name
        assert max(top for _, top in unions) > 255, name
    assert (np.dtype(np.uint16), True) in cuts  # lspa-n260


def test_instance_sequence_matches_golden_digest():
    """`dump_instance` of 30 instances from one generator, then its next
    draw: pins each instance and the generator state between calls."""
    rng = seeded(22)
    text = "".join(
        dump_instance(make_instance(m, n, k, rng))
        for _ in range(3)
        for m, n, k in INSTANCE_SHAPES
    )
    assert sha256(text + repr(rng.random())) == INSTANCE_SEQUENCE_DIGEST


def step_instances():
    return [make_instance(m, n, k, seeded(19, m, n)) for m, n, k in STEP_SIZES]


def trajectory_digest() -> str:
    text = "\n".join(
        " ".join(repr(x) for x in randomized_trajectory(inst, 60, seed=20))
        for inst in step_instances()
    )
    return sha256(text)


def stepper_digest() -> str:
    """30 slots of `step_randomized` per instance: the slot index and the
    events after each step (ids normalised to int), then the final masks."""
    lines = []
    for inst in step_instances():
        state = SlotState.initial(inst)
        rng = seeded(21, inst.m)
        for _ in range(30):
            ev = step_randomized(state, inst, rng)
            pairs = [(int(i), int(j)) for i, j in ev.activations]
            lines.append(f"{state.slot} {pairs} {list(ev.downloads)}")
        lines.append(" ".join(hex(s.mask) for s in state.sets))
    return sha256("\n".join(lines))


def test_randomized_trajectory_matches_golden_digest():
    assert trajectory_digest() == TRAJECTORY_DIGEST


def test_randomized_stepper_matches_golden_digest():
    assert stepper_digest() == STEPPER_DIGEST


def test_oracle_results_match_golden_digest():
    """(alpha_star, witness, states_explored) at (6,10,3), at (10,16,4) and
    on 40 small draws, 6 of whose optima lie below the bound."""
    rng = seeded(23)
    instances = [make_instance(6, 10, 3, seeded(seed)) for seed in range(20)]
    instances += [make_instance(10, 16, 4, seeded(seed)) for seed in range(10)]
    instances += [rand_small_instance(rng) for _ in range(40)]
    results = [optimal_aggregate(inst) for inst in instances]
    text = repr([(r.alpha_star, r.witness, r.states_explored) for r in results])
    assert sha256(text) == ORACLE_DIGEST


def test_randomized_sweep_reaches_multi_chunk_blocks(monkeypatch):
    """randomized-m80 runs long tails, so its blocks outgrow one chunk of
    picks: without it no golden sweep crosses a chunk boundary."""
    sizes = []
    first_hit = strategies._PickStream.first_hit

    def recording(picks, start, stop, masks):
        sizes.append(stop - start)
        return first_hit(picks, start, stop, masks)

    monkeypatch.setattr(strategies._PickStream, "first_hit", recording)
    run_scenario(Scenario.from_dict(GOLDEN["randomized-m80"][0]))
    assert max(sizes) > strategies._CHUNK


@pytest.mark.parametrize("chunk", [1, 3])
def test_randomized_digests_do_not_depend_on_chunk_size(monkeypatch, chunk):
    """With chunks (and look-ahead) of 1 or 3 rows, hits land in later
    chunks, blocks without a hit span many chunks, and runs end both inside
    and past the last chunk drawn; the stream and every randomized digest
    must not move."""
    monkeypatch.setattr(strategies, "_CHUNK", chunk)
    monkeypatch.setattr(strategies, "_AHEAD", chunk)
    draws = []
    draw_words = strategies._draw_words

    def recording(rng, slots, m):
        draws.append(slots)
        return draw_words(rng, slots, m)

    monkeypatch.setattr(strategies, "_draw_words", recording)
    for name, (doc, digest) in GOLDEN.items():
        if doc["algorithm"] == "randomized":
            records = run_scenario(Scenario.from_dict(doc))
            assert sha256(emit_results(records, format="csv")) == digest, name
    assert max(draws) == chunk
    assert trajectory_digest() == TRAJECTORY_DIGEST
    assert stepper_digest() == STEPPER_DIGEST


def load_bench_workloads(monkeypatch):
    """`bench/workloads.py`, loaded from its file: the bench directory is
    not a package and is not on the test path.  The module is registered
    for the test only, as its dataclass needs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_workloads_match_pinned_digests(monkeypatch, tmp_path):
    """Every benchmark workload at its default seed writes the CSV and
    manifest whose digests `bench/workloads.py` pins, as the benchmark
    checks before it times anything."""
    bench = load_bench_workloads(monkeypatch)
    assert bench.WORKLOADS
    for name, workload in bench.WORKLOADS.items():
        path = tmp_path / f"{name}.csv"
        scenario = Scenario.from_dict(workload.scenario_doc(bench.DEFAULT_SEED))
        run_and_emit(scenario, format="csv", path=str(path), jobs=1)
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (path, Path(manifest_path(str(path)))))
        assert digests == (workload.csv_sha256, workload.manifest_sha256), name
