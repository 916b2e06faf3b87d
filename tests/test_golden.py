"""Golden digests: the sha256 of the CSV of small fixed sweeps.

The digests were generated once from the engine before its mask-matrix
rewrite; any change to them means the RNG stream, the event order or the
CSV format changed, which the reproducibility contract forbids without a
version bump.  The sweeps cover every algorithm, SAP downloads with
truncated preference lists, a run cut off by max_slots, the exact-oracle
column, and universes that end exactly on, or just past, a 64-bit word.
"""

import hashlib

import pytest

from segswap.harness import Scenario, emit_results, run_scenario

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_csv_matches_golden_digest(name):
    doc, digest = GOLDEN[name]
    records = run_scenario(Scenario.from_dict(doc))
    text = emit_results(records, format="csv")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_golden_sweeps_cover_what_they_claim():
    rows = {name: run_scenario(Scenario.from_dict(doc)) for name, (doc, _) in GOLDEN.items()}
    assert all(r.truncated for r in rows["lspa-truncated"])
    assert any(r.downloads for r in rows["lspa-grid"])
    assert any(r.poc_exact is not None for r in rows["pepa-oracle"])
    assert {doc["algorithm"] for doc, _ in GOLDEN.values()} == {
        "lspa", "pepa", "lfs", "randomized"}
