"""Terminal metrics (NMAC, NMSD, Price of Choices) and the
expected-cardinality recurrence predictor for the randomized algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import SlotState, require_bytes, require_int


class SapNonzeroError(ValueError):
    """Price of Choices is only defined for runs with all SAP = 0."""


class ZeroAggregateError(ValueError):
    """A PoC ratio against an empty terminal aggregate is meaningless."""


def nmac(final: SlotState, n: int) -> float:
    """Normalized aggregate cardinality of one trial: sum |O_i| / (m*n)."""
    return final.aggregate() / (final.m * n)


def nmsd(final: SlotState, n: int) -> float:
    """Normalized expensive-link downloads of one trial: sum c_i / (m*n)."""
    return final.total_downloads() / (final.m * n)


def price_of_choices(alpha, final_aggregate, sap=0.0) -> float:
    """alpha / terminal aggregate; alpha is alpha_star for the exact ratio or
    aggregate_upper_bound for the certified over-estimate (bound >= alpha*).

    Only defined when every node's SAP was 0 for the whole run; pass the
    run's sap (scalar or per-node values) so that misuse raises.
    """
    values = sap if isinstance(sap, (list, tuple)) else (sap,)
    if any(v != 0 for v in values):
        raise SapNonzeroError(
            "price of choices is undefined when any node downloads (sap > 0)"
        )
    if final_aggregate <= 0:
        raise ZeroAggregateError("terminal aggregate must be positive")
    return alpha / final_aggregate


def expected_cardinality_step(e: float, m: int, n: int) -> float:
    """One step of the mean-cardinality recurrence for the randomized
    algorithm: a node pairs with a given GT partner with probability
    1/(m-1)^2, gains n-E with relative weight (1 - E/n), and the pairing
    fails only on identical sets, with probability generalized from
    1/C(n, E) via Gamma.  Computed with log-Gamma differences so large n
    cannot overflow."""
    if e >= n:
        return float(n)
    log_inv_binom = (
        math.lgamma(e + 1) + math.lgamma(n - e + 1) - math.lgamma(n + 1)
    )
    return e + (e / (m - 1) ** 2) * (1 - e / n) * (1 - math.exp(log_inv_binom))


def predict_expected_cardinality(m: int, n: int, k: int, epochs: int) -> list[float]:
    """E(x_1) = k, then the recurrence; non-decreasing and bounded by n.

    `epochs` whose output may pass the memory budget, `model.MAX_BYTES`,
    are refused before the first step, at 200 bytes per epoch: rendered
    by `segswap predict`, the list peaked at 164 bytes per epoch as CSV
    and 136 as JSON under tracemalloc (50,000 to 1,000,000 epochs, to a
    file and to stdout alike).  That allows up to 5,368,709 epochs.
    """
    m = require_int(m, "m", lo=2)
    n = require_int(n, "n")
    k = require_int(k, "k", lo=1, hi=n - 1)
    epochs = require_int(epochs, "epochs", lo=1)
    require_bytes(200 * epochs, f"a prediction of {epochs} epochs")
    out = [float(k)]
    for _ in range(epochs - 1):
        out.append(expected_cardinality_step(out[-1], m, n))
    return out


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo run's outputs; field order is the CSV column order."""

    scenario_id: str
    algorithm: str
    m: int
    n: int
    k: int
    sap: float
    pef: float
    trial: int
    seed: int
    r_end: int
    truncated: bool
    aggregate: int
    downloads: int
    nmac: float
    nmsd: float
    poc_exact: float | None
    poc_bound: float | None


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))
