"""Small-size tests of the benchmark itself.

    python3 -m pytest bench

They check that every workload reproduces its pinned outputs, that tracing
changes no output and leaves the package as it found it, that the output
check catches broken trials, and that the command honours its contract.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hostref
import run
from tracer import CALL_SITES, CountingRng, Tracer, layer_metrics
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, import_segswap

segswap = import_segswap()


def _original_call_sites():
    modules = {"harness": segswap.harness, "strategies": segswap.strategies}
    return {attr: getattr(modules[mod], attr) for mod, attr, _ in CALL_SITES}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reproduces_pinned_outputs(name, tmp_path):
    run.check_pinned(segswap.harness, WORKLOADS[name], tmp_path)


def test_pinned_check_rejects_changed_output(tmp_path):
    wrong = dataclasses.replace(WORKLOADS["lspa-grid"], csv_sha256="0" * 64)
    with pytest.raises(SystemExit, match="differ from the pinned"):
        run.check_pinned(segswap.harness, wrong, tmp_path)


@pytest.mark.parametrize("name", ["lspa-grid", "oracle-m6"])
def test_tracing_keeps_digests_and_restores_call_sites(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], trials=1)
    harness = segswap.harness
    before = _original_call_sites()
    plain = run.run_sweep(harness, workload, 7, tmp_path / "plain.csv")

    tracer = Tracer(segswap)
    with tracer.installed():
        assert harness.make_instance is not before["make_instance"]
        traced = run.run_sweep(harness, workload, 7, tmp_path / "traced.csv",
                               call=lambda *a, **kw: tracer.sweep(harness.run_and_emit, *a, **kw))

    assert _original_call_sites() == before
    assert (traced.csv_sha256, traced.manifest_sha256) == (plain.csv_sha256, plain.manifest_sha256)
    names = {span[0] for span in tracer.spans}
    assert {"harness.run_and_emit", "model.make_instance", "strategies.run_simulation",
            "graph.preference_list", "matching.find_stable_matching",
            "harness.emit_results", "harness.write_manifest"} <= names
    assert all(span[3] < i for i, span in enumerate(tracer.spans))
    metrics = layer_metrics(tracer, traced.attempted, traced_s=1.0, untraced_s=1.0)
    assert metrics["harness.trials"][0] == plain.attempted
    assert metrics["model.attempts"][0] >= metrics["model.make_instance.calls"][0] > 0
    if workload.config.get("oracle"):
        assert metrics["oracle.states"][0] > 0


def test_call_sites_restored_when_the_block_raises():
    before = _original_call_sites()
    with pytest.raises(RuntimeError):
        with Tracer(segswap).installed():
            raise RuntimeError("boom")
    assert _original_call_sites() == before


def test_counting_rng_keeps_the_stream():
    proxy = CountingRng(np.random.default_rng(5))
    got = [proxy.random((3, 4)), proxy.integers(10, size=5), proxy.random()]
    ref = np.random.default_rng(5)
    want = [ref.random((3, 4)), ref.integers(10, size=5), ref.random()]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert proxy.drawn == 12 + 5 + 1


def test_scaled_states_times_at_the_reference_speed():
    k = hostref.REF_S
    assert hostref.scaled([1.0, 2.0], [k, k, k]) == [1.0, 2.0]
    # Twice as slow a host: the time at the reference speed is half.
    assert hostref.scaled([1.0], [2 * k, 2 * k]) == [0.5]
    # One kernel time far off its neighbours does not move the window's median.
    assert hostref.scaled([1.0, 1.0, 1.0], [k, k, 9 * k, k]) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        hostref.scaled([1.0], [k])


def test_failed_trials_counts_each_broken_invariant():
    workload = WORKLOADS["oracle-m6"]
    scenario = segswap.Scenario.from_dict(workload.scenario_doc(DEFAULT_SEED))
    records = segswap.run_scenario(scenario)
    good = next(r for r in records if r.poc_exact is not None)
    m, n = scenario.m, scenario.n
    assert run.failed_trials(records, m, n) == 0
    broken = [
        dataclasses.replace(good, truncated=True),
        dataclasses.replace(good, nmac=0.0),
        dataclasses.replace(good, nmac=1.5),
        dataclasses.replace(good, aggregate=n * m + 1),
        dataclasses.replace(good, poc_bound=0.5),
        dataclasses.replace(good, poc_bound=None),
        dataclasses.replace(good, poc_exact=0.5),
        dataclasses.replace(good, poc_exact=good.poc_bound + 1),
    ]
    assert run.failed_trials(broken, m, n) == len(broken)


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    done = _bench("--workload", "lspa-grid", "--seed", "3", "--seconds", "0.2",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert "error_rate 0.0 ratio" in done.stdout


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "lfs-m200", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
