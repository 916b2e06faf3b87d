import math
import statistics

import pytest

from segswap.metrics import (
    CSV_COLUMNS,
    SapNonzeroError,
    TrialRecord,
    ZeroAggregateError,
    expected_cardinality_step,
    nmac,
    nmsd,
    predict_expected_cardinality,
    price_of_choices,
)
from segswap.model import Instance, InvalidParameterError, SegmentSet, SlotState, make_instance
from segswap.strategies import randomized_trajectory

from conftest import seeded


def state_of(n, member_lists, downloads=None):
    sets = [SegmentSet.from_members(n, ms) for ms in member_lists]
    return SlotState(slot=1, sets=sets, downloads=downloads or [0] * len(sets))


# ---------------------------------------------------------------------------
# per-trial metrics


def test_nmac_values():
    assert nmac(state_of(2, [[0, 1], [0, 1]]), 2) == 1.0
    assert nmac(state_of(2, [[0, 1], [0, 1], [0]]), 2) == pytest.approx(5 / 6)
    inst = make_instance(20, 50, 6, seeded(0))
    assert nmac(SlotState.initial(inst), 50) == pytest.approx(0.12)


def test_nmsd_values():
    assert nmsd(state_of(2, [[0, 1], [0, 1]]), 2) == 0.0
    assert nmsd(state_of(2, [[0, 1], [0, 1], [0, 1]], [0, 0, 1]), 2) == pytest.approx(1 / 6)
    assert nmsd(state_of(4, [[0, 1], [2, 3]], [2, 2]), 4) == 0.5


def test_price_of_choices_values():
    assert price_of_choices(4, 4) == 1.0
    assert price_of_choices(5, 4) == 1.25


def test_price_of_choices_domain():
    with pytest.raises(SapNonzeroError):
        price_of_choices(5, 4, sap=0.3)
    with pytest.raises(SapNonzeroError):
        price_of_choices(5, 4, sap=[0.0, 0.0, 0.1])
    with pytest.raises(ZeroAggregateError):
        price_of_choices(5, 0)
    assert price_of_choices(5, 4, sap=[0.0, 0.0]) == 1.25


# ---------------------------------------------------------------------------
# recurrence predictor


def test_step_saturates_at_n():
    assert expected_cardinality_step(50.0, 20, 50) == 50.0
    assert expected_cardinality_step(50.9, 20, 50) == 50.0


def test_predict_starts_at_k_and_matches_closed_form():
    out = predict_expected_cardinality(20, 50, 6, 2)
    assert out[0] == 6.0
    expected = 6 + (6 / 19**2) * (1 - 6 / 50) * (1 - 1 / math.comb(50, 6))
    assert out[1] == pytest.approx(expected, abs=1e-12)
    assert out[1] == pytest.approx(6.01463, abs=1e-5)


def test_predict_is_monotone_and_bounded():
    out = predict_expected_cardinality(4, 12, 3, 400)
    assert all(a <= b for a, b in zip(out, out[1:]))
    assert all(v <= 12.0 for v in out)


def test_predict_converges_to_n():
    # the deficit shrinks harmonically (increments go as deficit^2), so the
    # tail is slow but monotone: ~1/(H_n t / (m-1)^2) after t epochs
    out = predict_expected_cardinality(3, 4, 3, 3000)
    assert out[-1] == pytest.approx(4.0, abs=1e-3)
    assert out[-1] < 4.0
    assert abs(out[-1] - out[-2]) < 1e-6


def test_predict_domain():
    with pytest.raises(InvalidParameterError):
        predict_expected_cardinality(1, 10, 2, 5)
    with pytest.raises(InvalidParameterError):
        predict_expected_cardinality(5, 10, 0, 5)
    with pytest.raises(InvalidParameterError):
        predict_expected_cardinality(5, 10, 10, 5)
    with pytest.raises(InvalidParameterError):
        predict_expected_cardinality(5, 10, 2, 0)


def test_first_slot_gain_rate():
    """Measured per-node first-slot gain is k(n-k)/(n(m-1)): each node has m-1
    candidate partners at 1/(m-1)^2 mutual-pick probability each.  The
    recurrence models a single candidate, so the simulated rate runs m-1
    times faster; both facts are pinned here."""
    m, n, k = 10, 20, 4
    rng = seeded(60)
    gains = []
    for trial in range(1500):
        inst = make_instance(m, n, k, rng)
        traj = randomized_trajectory(inst, 2, seed=int(rng.integers(2**63)))
        gains.append(traj[1] - traj[0])
    mean = statistics.fmean(gains)
    half99 = 2.5758 * statistics.stdev(gains) / math.sqrt(len(gains))
    exact = k * (n - k) / (n * (m - 1))
    assert abs(mean - exact) <= 2 * half99
    increment = predict_expected_cardinality(m, n, k, 2)[1] - k
    assert m - 2 < mean / increment < m


# ---------------------------------------------------------------------------
# record layout


def test_csv_columns_golden():
    assert CSV_COLUMNS == (
        "scenario_id",
        "algorithm",
        "m",
        "n",
        "k",
        "sap",
        "pef",
        "trial",
        "seed",
        "r_end",
        "truncated",
        "aggregate",
        "downloads",
        "nmac",
        "nmsd",
        "poc_exact",
        "poc_bound",
    )


def test_trial_record_is_plain_data():
    rec = TrialRecord(
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
    assert rec.poc_exact is None and rec.poc_bound == 1.25
    assert tuple(getattr(rec, c) is not None or c == "poc_exact" for c in CSV_COLUMNS)
