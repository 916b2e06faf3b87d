import json

import pytest

from segswap import cli
from segswap.cli import main
from segswap.metrics import CSV_COLUMNS


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def lfs_config(tmp_path, **extra):
    doc = {"m": 2, "n": 2, "k": 1, "algorithm": "lfs", "trials": 2}
    doc.update(extra)
    return write_config(tmp_path, doc)


# ---------------------------------------------------------------------------
# simulate / sweep


def test_simulate_to_stdout(tmp_path, capsys):
    rc = main(["simulate", "--config", lfs_config(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert all(line.split(",")[1] == "lfs" for line in lines[1:])


def test_simulate_rejects_grids(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"m": 2, "n": 2, "k": 1, "algorithm": "lspa", "sap": [0.0, 0.5]},
    )
    rc = main(["simulate", "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sweep" in err


def test_sweep_runs_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "m": 3, "n": 4, "k": 2, "algorithm": "lspa",
            "sap": [0.0, 0.5], "pef": [0.5, 1.0], "trials": 2, "seed": 7,
        },
    )
    rc = main(["sweep", "--config", cfg])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 4 * 2  # header + cells * trials


def test_seed_and_trials_overrides(tmp_path, capsys):
    cfg = lfs_config(tmp_path)
    main(["simulate", "--config", cfg, "--trials", "4", "--seed", "1"])
    first = capsys.readouterr().out
    assert len(first.strip().split("\n")) == 5
    main(["simulate", "--config", cfg, "--trials", "4", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second  # master seed feeds every per-trial seed


def test_simulate_json_format(tmp_path, capsys):
    rc = main(["simulate", "--config", lfs_config(tmp_path), "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[0]["nmac"] == 1.0


def test_out_writes_file_and_manifest(tmp_path, capsys):
    target = tmp_path / "results.csv"
    rc = main(["simulate", "--config", lfs_config(tmp_path), "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith(",".join(CSV_COLUMNS))
    manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
    assert manifest["records"] == 2


def test_jobs_do_not_change_output(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"m": 3, "n": 4, "k": 2, "algorithm": "pepa", "pef": [0.5, 1.0], "trials": 4},
    )
    main(["sweep", "--config", cfg, "--jobs", "1"])
    serial = capsys.readouterr().out
    main(["sweep", "--config", cfg, "--jobs", "2"])
    assert capsys.readouterr().out == serial


def test_unwritable_out_is_runtime_failure(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "results.csv"
    rc = main(["simulate", "--config", lfs_config(tmp_path), "--out", str(target)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("runtime failure:")


# ---------------------------------------------------------------------------
# config loading errors


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    rc = main(["simulate", "--config", str(path)])
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    rc = main(["sweep", "--config", str(path)])
    assert rc == 1


# ---------------------------------------------------------------------------
# oracle


def test_oracle_from_initial_sets(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 2, "initial_sets": [[0], [1], [0]]})
    rc = main(["oracle", "--config", cfg])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "alpha_star 5"
    assert lines[1] == "bound 5"
    assert lines[2].startswith("states_explored ")
    assert lines[3] == "witness 0 1"


def test_oracle_from_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 2, "n": 3, "k": 2, "seed": 4})
    rc = main(["oracle", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha_star 6\nbound 6\n")


def test_oracle_json_format(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 2, "initial_sets": [[0], [1]]})
    rc = main(["oracle", "--config", cfg, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha_star"] == 4 and doc["bound"] == 4
    assert doc["witness"] == [[0, 1]]


def test_oracle_requires_shape_or_sets(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 3, "n": 2})
    rc = main(["oracle", "--config", cfg])
    assert rc == 1
    assert "initial_sets" in capsys.readouterr().err


def test_oracle_budget_exhaustion_is_runtime(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 2, "initial_sets": [[0], [1]], "max_states": 1})
    rc = main(["oracle", "--config", cfg])
    assert rc == 2
    assert capsys.readouterr().err.startswith("runtime failure:")


@pytest.mark.parametrize("max_states", [0, -5])
def test_oracle_max_states_below_one_rejected(tmp_path, capsys, max_states):
    doc = {"n": 2, "initial_sets": [[0], [1]], "max_states": max_states}
    rc = main(["oracle", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert "max_states" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sets, reason",
    [
        # a full node breaks A2 and lets alpha* = 6 pass the printed bound 5
        ([[0, 1], [0], [1]], "A2"),
        # one node has no bound at all
        ([[0, 1]], "m >= 2"),
    ],
)
def test_oracle_rejects_instances_without_a_bound(tmp_path, capsys, monkeypatch, sets, reason):
    def never_called(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "optimal_aggregate", never_called)
    rc = main(["oracle", "--config", write_config(tmp_path, {"n": 2, "initial_sets": sets})])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "initial_sets": [[0], [1]], "max_states": "abc"},
        {"n": 2, "initial_sets": [[0], [1]], "max_states": 10.5},
        {"m": 2.0, "n": 3, "k": 2},
        {"m": 2, "n": 3, "k": 2, "seed": 1.5},
        {"m": 2, "n": 3, "k": 2, "seed": -1},
        {"n": 2, "initial_sets": [[0], [1]], "bogus": 1},
        {"n": 2, "initial_sets": [[0], [1]], "seed": "x"},
        {"n": 2, "initial_sets": [[0], [1]], "m": 2.0},
        {"n": 2, "initial_sets": [[0], [1]], "k": 1.0},
        {"n": 2.0, "initial_sets": [[0], [1]]},
        {"n": 2, "initial_sets": [[0.0], [1]]},
        {"n": 2, "initial_sets": [[0], [1]], "sap": "0.5", "pef": True},
        {"m": 3, "n": 4, "k": 2, "bogus": 1},
    ],
)
def test_oracle_config_values_are_not_coerced(tmp_path, capsys, doc):
    rc = main(["oracle", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# predict


def test_predict_text(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 20, "n": 50, "k": 6, "epochs": 3})
    rc = main(["predict", "--config", cfg])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "epoch,expected_cardinality"
    assert lines[1] == "1,6.0"
    assert abs(float(lines[2].split(",")[1]) - 6.01463) < 1e-5
    assert len(lines) == 4


def test_predict_default_epochs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 4, "n": 6, "k": 2})
    rc = main(["predict", "--config", cfg])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 51


def test_predict_json(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 4, "n": 6, "k": 2, "epochs": 5})
    rc = main(["predict", "--config", cfg, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected"][0] == 2.0 and len(doc["expected"]) == 5


def test_predict_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 4, "n": 6, "k": 2, "mode": "fast"})
    rc = main(["predict", "--config", cfg])
    assert rc == 1
    assert "unknown predict keys" in capsys.readouterr().err


def test_predict_rejects_bad_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, {"m": 4, "n": 6, "k": 0})
    rc = main(["predict", "--config", cfg])
    assert rc == 1
    assert "bad predict config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"m": 4.9, "n": 6, "k": 2},
        {"m": 4, "n": "6", "k": 2},
        {"m": 4, "n": 6, "k": True},
        {"m": 4, "n": 6, "k": 2, "epochs": 5.0},
    ],
)
def test_predict_config_values_are_not_coerced(tmp_path, capsys, doc):
    rc = main(["predict", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: bad predict config")


# ---------------------------------------------------------------------------
# strict config values: wrong types are config errors, never coerced


@pytest.mark.parametrize(
    "override",
    [
        {"oracle": "false"},
        {"oracle": 0},
        {"m": 4.9},
        {"m": "abc"},
        {"m": True},
        {"seed": 1.5},
        {"trials": "2"},
        {"max_slots": 10.0},
        {"sap": "x"},
        {"pef": [1.0, None]},
        {"pef": True},
        {"out": 3},
    ],
)
def test_config_values_are_not_coerced(tmp_path, capsys, override):
    rc = main(["sweep", "--config", lfs_config(tmp_path, **override)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    rc = main(["simulate", "--config", lfs_config(tmp_path), "--jobs", jobs])
    assert rc == 1
    assert "--jobs" in capsys.readouterr().err
