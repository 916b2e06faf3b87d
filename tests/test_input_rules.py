"""Each input rule has one owner: `model.require_int` for integers and
`strategies.FORCED` for what an algorithm forces.  Every entry point that
takes such an input gives the same refusals and the same acceptances."""

import json

import numpy as np
import pytest

from segswap.cli import main
from segswap.harness import ConfigError, Scenario, emit_results, run_scenario
from segswap.metrics import predict_expected_cardinality
from segswap.model import (
    Instance,
    InvalidParameterError,
    SegmentSet,
    check_shape,
    dump_instance,
    load_instance,
    make_instance,
)
from segswap.oracle import aggregate_upper_bound, optimal_aggregate
from segswap.strategies import (
    ALGORITHMS,
    FORCED,
    _run_values,
    randomized_trajectory,
    run_simulation,
)

LFS = {"m": 2, "n": 2, "k": 1, "algorithm": "lfs"}
THREE = Instance.build(3, [[0], [1], [2]])

# entry point -> (call with the value under test, an accepted numpy integer,
# an out-of-range integer or None where every integer is in range, the error
# every refusal raises)
INTEGER_ENTRY_POINTS = {
    "Scenario.from_dict": (
        lambda v: Scenario.from_dict({**LFS, "seed": v}), np.int64(5), -1, ConfigError,
    ),
    "Scenario": (
        lambda v: run_scenario(Scenario(**LFS, trials=v)), np.int64(2), 0, ConfigError,
    ),
    "run_scenario(jobs=)": (
        lambda v: run_scenario(Scenario.from_dict(LFS), jobs=v), np.int64(1), 0, ConfigError,
    ),
    "run_simulation(max_slots=)": (
        lambda v: run_simulation(THREE, "lfs", seed=0, max_slots=v),
        np.int64(1), -1, InvalidParameterError,
    ),
    "SegmentSet.from_members": (
        lambda v: SegmentSet.from_members(4, [0, v]), np.int64(3), 4, InvalidParameterError,
    ),
    "predict_expected_cardinality": (
        lambda v: predict_expected_cardinality(v, 6, 2, 3), np.int64(4), 1,
        InvalidParameterError,
    ),
    "randomized_trajectory": (
        lambda v: randomized_trajectory(THREE, v, seed=0), np.int64(3), 0,
        InvalidParameterError,
    ),
    "aggregate_upper_bound(m)": (
        lambda v: aggregate_upper_bound(v, 3), np.int64(3), 1, InvalidParameterError,
    ),
    "aggregate_upper_bound(n)": (
        lambda v: aggregate_upper_bound(3, v), np.int64(2), 0, InvalidParameterError,
    ),
    "optimal_aggregate(max_states=)": (
        lambda v: optimal_aggregate(THREE, max_states=v), np.int64(1000), 0,
        InvalidParameterError,
    ),
    "Instance.build(n)": (
        lambda v: Instance.build(v, [[0], [1]]), np.int64(2), -1, InvalidParameterError,
    ),
    "Instance.build(k=)": (
        lambda v: Instance.build(2, [[0], [1]], k=v), np.int64(1), None, InvalidParameterError,
    ),
    "Instance.build(seed=)": (
        lambda v: Instance.build(2, [[0], [1]], seed=v), np.int64(7), None,
        InvalidParameterError,
    ),
    "make_instance(seed=)": (
        lambda v: make_instance(3, 4, 2, np.random.default_rng(0), seed=v), np.int64(7), None,
        InvalidParameterError,
    ),
    "SegmentSet(n)": (lambda v: SegmentSet(v), np.int64(3), -1, InvalidParameterError),
    "SegmentSet(mask)": (lambda v: SegmentSet(4, v), np.int64(3), 16, InvalidParameterError),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_integer_entry_points_share_one_rule(entry):
    call, accepted, out_of_range, error = INTEGER_ENTRY_POINTS[entry]
    for bad in (True, 2.5, "3", out_of_range):
        if bad is not None:
            with pytest.raises(error):
                call(bad)
    call(accepted)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_a_universe_too_small_is_refused_as_n(n, tmp_path, capsys):
    """Below n = 2 no k fits 1..n-1, but the refusal names n, not k, and the
    command line still exits 1."""
    message = f"n must be an integer >= 2, got {n}"
    with pytest.raises(InvalidParameterError, match=message):
        check_shape(2, n, 1)
    with pytest.raises(InvalidParameterError, match=message):
        make_instance(2, n, 1, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=message):
        Scenario.from_dict({**LFS, "n": n})
    for command, doc in (("simulate", {**LFS, "n": n}), ("oracle", {"m": 2, "n": n, "k": 1})):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 1
        assert message in capsys.readouterr().err


def test_numpy_integers_are_stored_as_ints():
    s = SegmentSet(np.int64(3), np.uint8(5))
    assert type(s.n) is int and type(s.mask) is int and s == SegmentSet(3, 5)
    inst = make_instance(3, 4, 2, np.random.default_rng(0), seed=np.int64(7))
    built = Instance.build(np.int64(2), [[0], [1]], k=np.int64(1), seed=np.uint32(3))
    for inst in (inst, built):
        assert all(type(v) is int for v in (inst.n, inst.k, inst.seed))
        # what dump_instance writes, load_instance reads back
        assert load_instance(dump_instance(inst)) == inst


def test_a_directly_built_scenario_is_normalised():
    s = Scenario(m=np.int64(3), n=np.int64(4), k=np.int64(2), algorithm="lfs",
                 trials=np.int64(2), master_seed=np.int64(7), max_slots=np.int64(9))
    assert s.scenario_id == Scenario.from_dict(
        {"m": 3, "n": 4, "k": 2, "algorithm": "lfs", "trials": 2, "seed": 7, "max_slots": 9}
    ).scenario_id
    assert all(type(v) is int for v in (s.m, s.n, s.k, s.trials, s.master_seed, s.max_slots))


def test_a_directly_built_scenario_equals_the_config_one():
    """Integer grid values are stored as floats, so the scenario id and the
    CSV bytes do not depend on how the scenario was built."""
    direct = Scenario(m=4, n=6, k=2, algorithm="lspa", sap_grid=(0, 1), pef_grid=(1,),
                      trials=2)
    read = Scenario.from_dict(
        {"m": 4, "n": 6, "k": 2, "algorithm": "lspa", "sap": [0.0, 1.0], "pef": 1.0,
         "trials": 2}
    )
    assert direct == read and direct.scenario_id == read.scenario_id
    assert direct.sap_grid == (0.0, 1.0) and all(type(v) is float for v in direct.sap_grid)
    assert emit_results(run_scenario(direct)) == emit_results(run_scenario(read))
    # numpy reals are accepted, as Instance.build's per-node values are
    s = Scenario(**LFS, pef_grid=(np.float32(1.0),))
    assert s.pef_grid == (1.0,) and type(s.pef_grid[0]) is float
    lspa = {**LFS, "algorithm": "lspa"}
    for bad in (True, "x", "0.5", None, float("nan"), 1.5):
        for grid in ("sap_grid", "pef_grid"):
            with pytest.raises(ConfigError, match="grid value"):
                Scenario(**lspa, **{grid: (bad,)})
    for oracle in ("yes", 1, None, np.bool_(True)):
        with pytest.raises(ConfigError, match="oracle must be true or false"):
            Scenario(**LFS, compute_oracle=oracle)


# ---------------------------------------------------------------------------
# forced knobs


# The paper's algorithms differ only in these: pepa is lspa at SAP 0, lfs
# and the randomized algorithm run at SAP 0 and PEF 1.
PAPER_FORCED = {
    "lspa": (None, None),
    "pepa": (0.0, None),
    "lfs": (0.0, 1.0),
    "randomized": (0.0, 1.0),
}


def test_forced_table_is_the_papers():
    assert FORCED == PAPER_FORCED
    assert ALGORITHMS == tuple(PAPER_FORCED)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_forced_values_are_what_the_engine_applies(algorithm):
    inst = Instance.build(2, [[0], [1], [0]], sap=0.3, pef=0.6)
    own = (inst.sap, inst.pef)
    for mine, forced, applied in zip(own, FORCED[algorithm], _run_values(inst, algorithm)):
        assert applied == (mine if forced is None else (forced,) * inst.m)


FORCED_KNOBS = [
    (algorithm, knob, value)
    for algorithm, pair in PAPER_FORCED.items()
    for knob, value in zip(("sap", "pef"), pair)
    if value is not None
]


@pytest.mark.parametrize("algorithm, knob, forced", FORCED_KNOBS)
def test_a_forced_knob_takes_exactly_its_value(algorithm, knob, forced):
    doc = {**LFS, "algorithm": algorithm}
    assert getattr(Scenario.from_dict({**doc, knob: [forced]}), f"{knob}_grid") == (forced,)
    for grid in ([0.5], [forced, forced], [forced, 0.5]):
        with pytest.raises(ConfigError, match=f"{algorithm} forces {knob}"):
            Scenario.from_dict({**doc, knob: grid})
