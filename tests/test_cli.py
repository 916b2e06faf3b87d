import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from segswap import cli, harness, metrics, model, oracle, strategies
from segswap.cli import main
from segswap.metrics import CSV_COLUMNS
from segswap.model import InvalidParameterError, check_shape, make_instance


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


def test_unwritable_out_is_runtime_failure(tmp_path, capsys, monkeypatch):
    """An output path that passes the checks before the run but cannot be
    opened for writing when the results are written (here a directory
    appears there during the run) is a runtime failure."""
    target = tmp_path / "results.csv"
    run_scenario = harness.run_scenario

    def run_then_block(*args, **kwargs):
        records = run_scenario(*args, **kwargs)
        target.mkdir()
        return records

    monkeypatch.setattr(harness, "run_scenario", run_then_block)
    rc = main(["simulate", "--config", lfs_config(tmp_path), "--out", str(target)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("runtime failure:")


def test_out_in_a_missing_directory_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch
):
    """An output path in a directory that does not exist, an empty one, one
    that ends in a separator, or one that names an existing directory with
    no trailing separator is a config error (exit 1), from --out or a
    config's "out" alike, raised before an instance is generated: the
    sweep's work is not done and then lost when the results cannot be
    written."""
    def never_called(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "make_instance", never_called)
    monkeypatch.setattr(cli, "make_instance", never_called)
    monkeypatch.setattr(cli, "predict_expected_cardinality", never_called)
    (tmp_path / "dir").mkdir()
    sweep = {"m": 20, "n": 50, "k": 6, "algorithm": "lfs", "trials": 50, "seed": 1}
    for target, named in (
        (str(tmp_path / "nonexistent" / "dir" / "x.csv"), "nonexistent"),
        ("", "''"),
        (str(tmp_path / "dir") + os.sep, "dir" + os.sep),
        (str(tmp_path / "dir"), "is a directory"),
    ):
        for command, doc in (
            ("sweep", sweep),
            ("simulate", sweep),
            ("oracle", {"m": 4, "n": 6, "k": 2, "seed": 1}),
            ("predict", {"m": 4, "n": 6, "k": 2}),
        ):
            rc = main([command, "--config", write_config(tmp_path, doc), "--out", target])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write") and named in err
        for command in ("sweep", "simulate"):
            rc = main([command, "--config", write_config(tmp_path, {**sweep, "out": target})])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: cannot write")
    assert not (tmp_path / "nonexistent").exists()
    assert os.listdir(tmp_path / "dir") == []


def test_out_that_is_no_regular_file_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch
):
    """sweep and simulate write a manifest next to their output, so an
    output that exists as neither a regular file nor a directory (here a
    link to /dev/null) is a config error before any instance is made; a
    broken check would write its manifest next to the link, in tmp_path.
    oracle and predict write no manifest and may write to /dev/null."""
    made = []

    def spy(*args, **kwargs):
        made.append(args)
        return make_instance(*args, **kwargs)

    monkeypatch.setattr(harness, "make_instance", spy)
    link = tmp_path / "null.csv"
    link.symlink_to(os.devnull)
    cfg = lfs_config(tmp_path)
    for command in ("sweep", "simulate"):
        rc = main([command, "--config", cfg, "--out", str(link)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and str(link) in err
        doc = {"m": 2, "n": 2, "k": 1, "algorithm": "lfs", "out": str(link)}
        rc = main([command, "--config", write_config(tmp_path, doc, "out.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot write")
    assert made == []
    assert sorted(os.listdir(tmp_path)) == ["config.json", "null.csv", "out.json"]
    oracle = write_config(tmp_path, {"m": 4, "n": 6, "k": 2, "seed": 1}, "oracle.json")
    predict = write_config(tmp_path, {"m": 4, "n": 6, "k": 2}, "predict.json")
    for command, path in (("oracle", oracle), ("predict", predict)):
        assert main([command, "--config", path, "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")


def test_manifest_path_that_is_no_regular_file_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch
):
    """sweep and simulate write `<out>.manifest.json` after the whole run;
    when that path exists as a directory or a link to /dev/null, the run
    is a config error (exit 1) before any instance is made, and no results
    file is left behind without its manifest."""
    def never_called(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "make_instance", never_called)
    monkeypatch.setattr(cli, "make_instance", never_called)
    out = tmp_path / "x.csv"
    manifest = Path(harness.manifest_path(str(out)))
    cfg = lfs_config(tmp_path)
    for make in (manifest.mkdir, lambda: manifest.symlink_to(os.devnull)):
        make()
        for command in ("sweep", "simulate"):
            rc = main([command, "--config", cfg, "--out", str(out)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write") and str(manifest) in err
            assert not out.exists()
        if manifest.is_dir():
            assert os.listdir(manifest) == []
            manifest.rmdir()
        else:
            manifest.unlink()


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


def test_oracle_refuses_a_utility_key_before_any_search(tmp_path, capsys, monkeypatch):
    """Instance JSON has no utility tag: an oracle config that still
    carries one has an unknown key (exit 1), refused before the search."""
    def never_called(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr(oracle, "_pruned_search", never_called)
    doc = {"n": 2, "initial_sets": [[0], [1], [0]], "utility": "cardinality"}
    rc = main(["oracle", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad oracle config") and "utility" in err


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


def test_oracle_refuses_a_search_too_large_before_any_work(tmp_path, capsys, monkeypatch):
    """At (400,100,5) each level of the search may hold 79,800 moves, and
    at (100,40,5) the default 2,000,000 states may hold about 1.9 GiB of
    visited keys: both shapes are refused before an instance is generated
    or a search starts."""
    def never_called(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "make_instance", never_called)
    monkeypatch.setattr(cli, "optimal_aggregate", never_called)
    for doc in ({"m": 400, "n": 100, "k": 5, "seed": 1, "max_states": 3000},
                {"m": 100, "n": 40, "k": 5, "seed": 1}):
        rc = main(["oracle", "--config", write_config(tmp_path, doc)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MiB" in err


def test_simulate_refuses_a_run_too_large_before_any_work(tmp_path, capsys, monkeypatch):
    """At m = 20,000 a run's (m, m) arrays may take about 9.3 GiB: the
    shape is refused before an instance is generated."""
    def never_called(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "make_instance", never_called)
    doc = {"m": 20_000, "n": 100, "k": 5, "algorithm": "lfs"}
    rc = main(["simulate", "--config", write_config(tmp_path, doc)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MiB" in err and "m=20000" in err


def test_a_generation_attempt_too_large_is_refused_before_any_draw(
    tmp_path, capsys, monkeypatch
):
    """At (2, 10**9, 5*10**8) one generation attempt draws 2*10**9 float64
    keys (about 32 GiB with their sort and table): sweep and a shape-based
    oracle both refuse the shape before an instance is drawn."""
    def never_called(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "make_instance", never_called)
    monkeypatch.setattr(cli, "make_instance", never_called)
    shape = {"m": 2, "n": 10**9, "k": 5 * 10**8}
    for command, doc in (("sweep", {**shape, "algorithm": "lfs"}), ("oracle", shape)):
        rc = main([command, "--config", write_config(tmp_path, doc)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "generation attempt at m=2" in err
    with pytest.raises(InvalidParameterError, match="32425 MiB"):
        make_instance(2, 10**9, 5 * 10**8, None)  # refused before the generator is read
    check_shape(2, 10**6, 999_999)


def test_a_sweep_with_too_many_records_is_refused_when_built(tmp_path, capsys):
    """Cells x trials records must fit in the budget at RECORD_BYTES each;
    the largest count that fits is accepted without running anything."""
    fit = model.MAX_BYTES // harness.RECORD_BYTES
    base = {"m": 2, "n": 2, "k": 1, "algorithm": "lspa"}
    assert harness.Scenario.from_dict({**base, "trials": fit}).trials == fit
    for doc in ({**base, "trials": fit + 1}, {**base, "trials": 10**12},
                {**base, "sap": [0.0, 1.0], "trials": fit // 2 + 1}):
        with pytest.raises(harness.ConfigError, match="records may hold"):
            harness.Scenario.from_dict(doc)
    rc = main(["sweep", "--config", lfs_config(tmp_path, trials=10**12)])
    assert rc == 1
    assert "records may hold" in capsys.readouterr().err


def test_workers_too_large_together_are_refused_before_any_pool(
    tmp_path, capsys, monkeypatch
):
    """min(jobs, runs) runs side by side must fit in the budget: one lfs run
    at m = 6,000, n = 100 (721 MiB) fits, two do not."""
    asked = pool_requests(monkeypatch)
    assert strategies.engine_bytes(6000, 100, "lfs") >> 20 == 721
    doc = {"m": 6000, "n": 100, "k": 5, "algorithm": "lfs", "trials": 2}
    rc = main(["sweep", "--config", write_config(tmp_path, doc), "--jobs", "64"])
    assert rc == 1
    assert "the arrays of 2 runs at m=6000, n=100" in capsys.readouterr().err
    assert asked == []
    # with the budget at one tiny run, jobs count only up to the runs there
    # are (a randomized one, whose chunk of picks leaves room for 2 records)
    tiny = {"m": 2, "n": 2, "k": 1, "algorithm": "randomized"}
    monkeypatch.setattr(model, "MAX_BYTES", strategies.engine_bytes(2, 2, "randomized"))
    s = harness.Scenario.from_dict({**tiny, "trials": 2})
    with pytest.raises(harness.ConfigError, match="2 runs"):
        harness.run_scenario(s, jobs=2)
    assert asked == []
    one = harness.Scenario.from_dict(tiny)
    assert len(harness.run_scenario(one, jobs=2)) == 1


def test_run_size_limits_depend_on_the_algorithm(monkeypatch):
    """A randomized run holds a chunk of picks, not (m, m) arrays, so its
    limit lies far above that of lspa, pepa and lfs: at n = 100 the largest
    m each may run at is accepted when a Scenario is built and one more is
    refused, with no run started."""
    def never_called(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(harness, "make_instance", never_called)
    monkeypatch.setattr(harness, "run_simulation", never_called)
    shape = {"n": 100, "k": 5}
    harness.Scenario.from_dict({**shape, "m": 6000, "algorithm": "randomized"})
    for algorithm, largest in (("lspa", 7149), ("pepa", 7149), ("lfs", 7149),
                               ("randomized", 52_347)):
        s = harness.Scenario.from_dict({**shape, "m": largest, "algorithm": algorithm})
        assert s.m == largest
        with pytest.raises(harness.ConfigError, match=f"a run at m={largest + 1}, n=100"):
            harness.Scenario.from_dict({**shape, "m": largest + 1, "algorithm": algorithm})


def test_a_refusal_past_the_limit_reads_above_it():
    """A refused estimate is printed in MiB rounded up, so one just past the
    budget never reads as the limit itself: the largest randomized run at
    n = 100 plus one node, and the budget plus one byte."""
    doc = {"m": 52_348, "n": 100, "k": 5, "algorithm": "randomized"}
    with pytest.raises(harness.ConfigError, match="may hold 1025 MiB, over the 1024 MiB limit"):
        harness.Scenario.from_dict(doc)
    model.require_bytes(model.MAX_BYTES, "the budget itself")
    with pytest.raises(InvalidParameterError, match="may hold 1025 MiB, over the 1024 MiB"):
        model.require_bytes(model.MAX_BYTES + 1, "one byte more")


@pytest.mark.parametrize(
    "sets, reason",
    [
        # a full node breaks A2 and lets alpha* = 6 pass the printed bound 5
        ([[0, 1], [0], [1]], "A2"),
        # one node has no bound at all
        ([[0, 1]], "m must be an integer >= 2, got 1"),
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
        # max_states is checked before generation, which at this shape gives
        # up after its attempt cap (a runtime failure, exit 2)
        {"m": 15, "n": 50, "k": 6, "max_states": 0},
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


def test_predict_refuses_epochs_past_the_memory_budget_before_any_step(
    tmp_path, capsys, monkeypatch
):
    """At 200 bytes per epoch the default budget allows 5,368,709 epochs;
    one more, or 10**9, is a config error before the first step."""
    def never_called(*args, **kwargs):
        raise AssertionError("a step was computed")

    monkeypatch.setattr(metrics, "expected_cardinality_step", never_called)
    for epochs in (5_368_710, 10**9):
        doc = {"m": 20, "n": 50, "k": 6, "epochs": epochs}
        rc = main(["predict", "--config", write_config(tmp_path, doc)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad predict config") and f"{epochs} epochs" in err
        with pytest.raises(InvalidParameterError, match="MiB"):
            metrics.predict_expected_cardinality(20, 50, 6, epochs)
    monkeypatch.setattr(model, "MAX_BYTES", 200 * 4)
    with pytest.raises(InvalidParameterError, match="5 epochs"):
        metrics.predict_expected_cardinality(20, 50, 6, 5)


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


def pool_requests(monkeypatch) -> list[int]:
    """Replace the process pool with a stub that records `max_workers` and
    raises, so that no test here ever starts a worker process."""
    asked = []

    def stub(max_workers):
        asked.append(max_workers)
        raise RuntimeError("no process pool in this test")

    # run_scenario imports the pool from concurrent.futures when it builds one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", stub)
    return asked


@pytest.mark.parametrize("jobs", [harness.MAX_JOBS + 1, 100_000])
def test_jobs_above_cap_rejected_before_any_pool(tmp_path, capsys, monkeypatch, jobs):
    asked = pool_requests(monkeypatch)
    for command in ("simulate", "sweep"):
        rc = main([command, "--config", lfs_config(tmp_path), "--jobs", str(jobs)])
        assert rc == 1
        assert "--jobs" in capsys.readouterr().err
    s = harness.Scenario.from_dict({"m": 2, "n": 2, "k": 1, "algorithm": "lfs", "trials": 2})
    with pytest.raises(harness.ConfigError, match="jobs"):
        harness.run_scenario(s, jobs=jobs)
    assert asked == []


def test_jobs_at_cap_reach_the_pool(tmp_path, capsys, monkeypatch):
    """A 2-trial sweep asks the pool for 2 workers, whatever `--jobs` is."""
    asked = pool_requests(monkeypatch)
    rc = main(["sweep", "--config", lfs_config(tmp_path), "--jobs", str(harness.MAX_JOBS)])
    assert rc == 2
    assert "no process pool" in capsys.readouterr().err
    assert asked == [2]


@pytest.mark.parametrize("trials", [harness.MAX_JOBS, harness.MAX_JOBS + 36])
def test_jobs_at_cap_fill_the_pool_when_runs_suffice(tmp_path, capsys, monkeypatch, trials):
    asked = pool_requests(monkeypatch)
    cfg = lfs_config(tmp_path, trials=trials)
    rc = main(["sweep", "--config", cfg, "--jobs", str(harness.MAX_JOBS)])
    assert rc == 2
    assert "no process pool" in capsys.readouterr().err
    assert asked == [harness.MAX_JOBS]


# ---------------------------------------------------------------------------
# usage errors: a malformed command line is a config error (exit 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "CFG", "--jobs", "2.5"],
        ["simulate", "--config", "CFG", "--seed", "1.5"],
        ["sweep", "--config", "CFG", "--trials", "x"],
        ["simulate", "--config", "CFG", "--bogus"],
        ["simulate"],
        [],
    ],
)
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    cfg = lfs_config(tmp_path)
    rc = main([cfg if a == "CFG" else a for a in argv])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: segswap")


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args) -> subprocess.CompletedProcess:
    """`python -m segswap.cli` in a child process, importing this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "segswap.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_exit_codes_of_the_process(tmp_path):
    cfg = lfs_config(tmp_path)
    ok = run_cli("simulate", "--config", cfg)
    assert ok.returncode == 0 and ok.stdout.startswith(",".join(CSV_COLUMNS))
    usage = run_cli("simulate", "--config", cfg, "--jobs", "2.5")
    assert usage.returncode == 1 and usage.stderr.startswith("error:")
    assert usage.stdout == ""
    missing = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "no" / "r.csv"))
    assert missing.returncode == 1 and missing.stderr.startswith("error:")
    directory = run_cli("simulate", "--config", cfg, "--out", str(tmp_path))
    assert directory.returncode == 1 and directory.stderr.startswith("error:")
    budget = write_config(
        tmp_path, {"n": 2, "initial_sets": [[0], [1]], "max_states": 1}, "oracle.json"
    )
    runtime = run_cli("oracle", "--config", budget)
    assert runtime.returncode == 2 and runtime.stderr.startswith("runtime failure:")
