import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from segswap import __version__, harness
from segswap.harness import (
    ConfigError,
    Scenario,
    emit_results,
    manifest_path,
    run_and_emit,
    run_scenario,
    trial_seed,
    write_manifest,
)
from segswap.metrics import CSV_COLUMNS, TrialRecord

SRC = Path(__file__).resolve().parents[1] / "src"


def scenario(**overrides) -> Scenario:
    doc = {"m": 2, "n": 2, "k": 1, "algorithm": "lfs"}
    doc.update(overrides)
    return Scenario.from_dict(doc)


# ---------------------------------------------------------------------------
# configuration parsing and validation


def test_from_dict_defaults():
    s = scenario()
    assert s.sap_grid == (0.0,) and s.pef_grid == (1.0,)
    assert s.trials == 1 and s.master_seed == 0
    assert s.max_slots is None and s.compute_oracle is False and s.out is None


def test_from_dict_scalars_become_grids():
    s = scenario(algorithm="lspa", sap=0.5, pef=[0.25, 1.0], trials=4, seed=9)
    assert s.sap_grid == (0.5,)
    assert s.pef_grid == (0.25, 1.0)
    assert s.trials == 4 and s.master_seed == 9


@pytest.mark.parametrize(
    "overrides",
    [
        {"bogus": 1},
        {"algorithm": "greedy"},
        {"m": 1},
        {"k": 0},
        {"k": 2},
        {"m": 2, "n": 5, "k": 2},
        {"trials": 0},
        {"seed": -1},
        {"algorithm": "lspa", "sap": []},
        {"algorithm": "lspa", "sap": 1.5},
        {"pef": -0.2},
        {"max_slots": 0},
        {"algorithm": "pepa", "sap": 0.5},
        {"algorithm": "lfs", "sap": 0.5},
        {"algorithm": "lfs", "pef": 0.5},
        {"algorithm": "randomized", "pef": 0.5},
        {"algorithm": "randomized", "sap": [0.0, 0.5]},
    ],
)
def test_from_dict_rejects(overrides):
    with pytest.raises(ConfigError):
        scenario(**overrides)


def test_from_dict_missing_keys():
    with pytest.raises(ConfigError, match="missing"):
        Scenario.from_dict({"m": 2, "n": 2, "k": 1})


def test_scenario_id_is_stable_and_sensitive():
    a = scenario(trials=10)
    b = scenario(trials=10)
    c = scenario(trials=11)
    assert a.scenario_id == b.scenario_id
    assert a.scenario_id != c.scenario_id
    assert len(a.scenario_id) == 12
    assert set(a.scenario_id) <= set("0123456789abcdef")
    canon = json.dumps(a.to_dict(), sort_keys=True).encode()
    assert a.scenario_id == hashlib.sha256(canon).hexdigest()[:12]
    assert "scenario_id" not in repr(a)


def test_scenario_id_is_hashed_once_when_built(tmp_path, monkeypatch):
    s = scenario(trials=3)

    def no_hash(*args):
        raise AssertionError("the scenario id is hashed again")

    monkeypatch.setattr(harness.hashlib, "sha256", no_hash)
    records, _ = run_and_emit(s, path=str(tmp_path / "r.csv"))
    assert {r.scenario_id for r in records} == {s.scenario_id}
    assert json.loads((tmp_path / "r.csv.manifest.json").read_text())["scenario_id"] == s.scenario_id


def test_cells_are_sap_major():
    s = scenario(algorithm="lspa", sap=[0.0, 0.5], pef=[0.25, 1.0])
    assert s.cells() == [(0, 0.0, 0.25), (1, 0.0, 1.0), (2, 0.5, 0.25), (3, 0.5, 1.0)]


def test_trial_seed_determinism_and_spread():
    assert trial_seed(0, 0, 0) == trial_seed(0, 0, 0)
    seeds = {trial_seed(0, c, t) for c in range(10) for t in range(500)}
    assert len(seeds) == 5000
    assert trial_seed(1, 0, 0) != trial_seed(0, 0, 0)


# ---------------------------------------------------------------------------
# execution


def test_trivial_scenario_records():
    s = scenario(trials=3, seed=42)
    records = run_scenario(s)
    assert len(records) == 3
    for t, rec in enumerate(records):
        assert rec.scenario_id == s.scenario_id
        assert (rec.m, rec.n, rec.k) == (2, 2, 1)
        assert (rec.sap, rec.pef) == (0.0, 1.0)
        assert rec.trial == t
        assert rec.seed == trial_seed(42, 0, t)
        assert rec.r_end == 1 and rec.truncated is False
        assert rec.aggregate == 4 and rec.downloads == 0
        assert rec.nmac == 1.0 and rec.nmsd == 0.0
        assert rec.poc_bound == 1.0  # bound n*m = 4 over aggregate 4
        assert rec.poc_exact is None  # oracle off by default


def test_oracle_column():
    records = run_scenario(scenario(trials=2, oracle=True))
    assert all(rec.poc_exact == 1.0 for rec in records)
    # past the exhaustive-search size limits the column stays empty
    s = Scenario.from_dict(
        {"m": 7, "n": 3, "k": 1, "algorithm": "lfs", "oracle": True}
    )
    rec = run_scenario(s)[0]
    assert rec.poc_exact is None and rec.poc_bound is not None


def test_poc_undefined_with_downloads():
    s = scenario(algorithm="lspa", sap=[0.5], trials=2)
    for rec in run_scenario(s):
        assert rec.poc_exact is None and rec.poc_bound is None
        assert rec.nmac == 1.0  # sap > 0 always reaches the full universe


def test_record_ordering_follows_cells():
    s = scenario(algorithm="lspa", sap=[0.0, 1.0], pef=[0.5, 1.0], trials=2)
    records = run_scenario(s)
    keys = [(rec.sap, rec.pef, rec.trial) for rec in records]
    assert keys == [
        (sap, pef, t) for _, sap, pef in s.cells() for t in range(2)
    ]


def test_max_slots_truncates():
    s = Scenario.from_dict(
        {"m": 3, "n": 3, "k": 1, "algorithm": "lfs", "max_slots": 1, "trials": 2}
    )
    for rec in run_scenario(s):
        assert rec.truncated is True and rec.r_end == 1


def test_parallel_matches_serial():
    s = scenario(algorithm="lspa", m=4, n=5, k=2, sap=[0.0, 0.4], trials=6, seed=3)
    assert run_scenario(s, jobs=2) == run_scenario(s, jobs=1)


@pytest.mark.parametrize("jobs", [0, -3, 2.5, True])
def test_jobs_outside_range_rejected_before_any_run(monkeypatch, jobs):
    def no_run(*args, **kwargs):
        raise AssertionError("no trial and no process pool may start")

    # run_scenario imports the pool from concurrent.futures when it builds one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    monkeypatch.setattr(harness, "_run_one", no_run)
    with pytest.raises(ConfigError, match="jobs"):
        run_scenario(scenario(trials=2), jobs=jobs)


# ---------------------------------------------------------------------------
# emission


HAND_RECORD = TrialRecord(
    scenario_id="abc",
    algorithm="lfs",
    m=2,
    n=2,
    k=1,
    sap=0.0,
    pef=1.0,
    trial=0,
    seed=42,
    r_end=1,
    truncated=False,
    aggregate=4,
    downloads=0,
    nmac=1.0,
    nmsd=0.0,
    poc_exact=None,
    poc_bound=1.25,
)


def test_csv_golden_row():
    text = emit_results([HAND_RECORD])
    header, row, tail = text.split("\n")
    assert header == ",".join(CSV_COLUMNS)
    assert row == "abc,lfs,2,2,1,0.0,1.0,0,42,1,false,4,0,1.0,0.0,,1.25"
    assert tail == ""


def test_json_uses_null_for_absent():
    text = emit_results([HAND_RECORD], format="json")
    assert text.endswith("\n")
    rows = json.loads(text)
    assert rows[0]["poc_exact"] is None
    assert rows[0]["truncated"] is False
    assert list(rows[0]) == list(CSV_COLUMNS)


@pytest.mark.parametrize("count", [0, 1, 2, 9])
def test_json_matches_one_dump_of_every_row(count):
    """Rendering one row at a time gives the bytes of one indented dump of
    the whole list, also for no rows."""
    records = [HAND_RECORD] + run_scenario(
        scenario(m=4, n=6, k=2, algorithm="lspa", sap=[0.0, 0.5], trials=4)
    )
    rows = [{col: getattr(r, col) for col in CSV_COLUMNS} for r in records[:count]]
    assert emit_results(records[:count], format="json") == json.dumps(rows, indent=2) + "\n"
    if not count:
        assert emit_results([], format="json") == "[]\n"


def test_emit_format_rejected():
    with pytest.raises(ConfigError):
        emit_results([], format="tsv")


@pytest.mark.parametrize("format", ["xml", "", "CSV"])
def test_unknown_format_rejected_before_any_run(monkeypatch, tmp_path, format):
    def no_run(*args, **kwargs):
        raise AssertionError("no trial may start")

    monkeypatch.setattr(harness, "_run_one", no_run)
    with pytest.raises(ConfigError, match="format"):
        run_and_emit(scenario(trials=2), format=format, path=str(tmp_path / "out.csv"))
    assert list(tmp_path.iterdir()) == []


def test_one_worker_sweep_imports_no_process_pool():
    script = (
        "import sys, segswap\n"
        "s = segswap.harness.Scenario.from_dict("
        "{'m': 6, 'n': 10, 'k': 3, 'algorithm': 'pepa', 'trials': 2, 'oracle': True})\n"
        "assert len(segswap.harness.run_scenario(s, jobs=1)) == 2\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout == "[]\n", done.stderr


def test_emit_write_failure_names_path(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        emit_results([HAND_RECORD], path=str(target))
    with pytest.raises(OSError, match="manifest"):
        write_manifest(scenario(), 1, str(target))


def test_rerun_is_byte_identical(tmp_path):
    s = scenario(algorithm="lspa", m=3, n=4, k=2, sap=[0.0, 0.5], trials=4, seed=11)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_and_emit(s, path=str(out1))
    run_and_emit(s, path=str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert (
        (tmp_path / "a.csv.manifest.json").read_bytes()
        == (tmp_path / "b.csv.manifest.json").read_bytes()
    )


def test_a_failed_write_leaves_a_prefix_of_the_new_text(tmp_path):
    """A write that fails part way, here at a file size limit set in a child
    process, leaves the start of the new text and none of the old file's
    bytes, so a cut-short output never reads as a mix of two runs."""
    target = tmp_path / "out.csv"
    target.write_text("o" * 4000)
    script = (
        "import resource, signal, sys\n"
        "from segswap.harness import write_text\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.RLIM_INFINITY))\n"
        "try:\n"
        "    write_text(sys.argv[1], 'n' * 3000)\n"
        "except OSError as e:\n"
        "    print(e)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(target)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.startswith(f"writing {target}:"), done.stderr
    data = target.read_bytes()
    assert len(data) <= 1000 and data == b"n" * len(data)


def test_a_rerun_into_the_same_path_matches_a_fresh_write(tmp_path):
    reused, fresh = tmp_path / "reused.csv", tmp_path / "fresh.csv"
    run_and_emit(scenario(trials=3, seed=123456), path=str(reused))
    first = (reused.stat().st_size, os.stat(manifest_path(str(reused))).st_size)
    short = scenario(trials=1, seed=2)
    run_and_emit(short, path=str(reused))
    run_and_emit(short, path=str(fresh))
    assert reused.read_bytes() == fresh.read_bytes()
    with open(manifest_path(str(reused)), "rb") as a, open(manifest_path(str(fresh)), "rb") as b:
        assert a.read() == b.read()
    # both files of the first sweep were longer, so the second had to cut them
    assert first[0] > fresh.stat().st_size
    assert first[1] > os.stat(manifest_path(str(fresh))).st_size


def test_manifest_contents(tmp_path):
    s = scenario(trials=2, seed=5)
    out = tmp_path / "r.csv"
    records, _ = run_and_emit(s, path=str(out))
    mpath = manifest_path(str(out))
    assert mpath == str(out) + ".manifest.json"
    doc = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert doc == {
        "scenario": s.to_dict(),
        "scenario_id": s.scenario_id,
        "tool": {"name": "segswap", "version": __version__},
        "master_seed": 5,
        "records": len(records),
    }


def test_emit_returns_text_without_path():
    s = scenario(trials=1)
    records = run_scenario(s)
    text = emit_results(records)
    assert text.count("\n") == 2  # header + one row
