"""Scenario configuration, seeded Monte Carlo execution, and CSV/JSON
result emission.

Seeding: every (cell, trial) gets the 64-bit fingerprint of
SeedSequence([master_seed, cell_index, trial]); the instance is drawn with
SeedSequence([fingerprint, 0]) and the run consumes SeedSequence
([fingerprint, 1]).  The fingerprint lands in the `seed` CSV column, so any
row can be reproduced in isolation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import __version__
from .metrics import CSV_COLUMNS, TrialRecord, nmac, nmsd, price_of_choices
from .model import InvalidParameterError, make_instance, require_int
from .oracle import BudgetExceededError, aggregate_upper_bound, optimal_aggregate
from .strategies import ALGORITHMS, run_simulation

# The exhaustive oracle is only consulted inside its intended search budget.
ORACLE_MAX_M = 6
ORACLE_MAX_N = 10


class ConfigError(ValueError):
    """The scenario configuration is structurally or semantically invalid."""


def config_int(doc: dict, key: str, default=None) -> int:
    """`doc[key]` (or `default` when absent), which must be a true integer:
    bools, floats and strings are config errors, never coerced."""
    try:
        return require_int(doc.get(key, default), key)
    except InvalidParameterError as e:
        raise ConfigError(str(e)) from None


_SCENARIO_KEYS = {
    "m", "n", "k", "algorithm", "sap", "pef", "trials", "seed",
    "max_slots", "oracle", "out",
}


@dataclass(frozen=True)
class Scenario:
    """One experiment: a (sap, pef) grid of Monte Carlo cells at fixed
    (m, n, k) for one algorithm.  SAP and PEF are constant across nodes and
    slots within a cell; per-node or per-slot schedules stay library-only.
    """

    m: int
    n: int
    k: int
    algorithm: str
    sap_grid: tuple[float, ...] = (0.0,)
    pef_grid: tuple[float, ...] = (1.0,)
    trials: int = 1
    master_seed: int = 0
    max_slots: int | None = None
    compute_oracle: bool = False
    out: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        unknown = set(doc) - _SCENARIO_KEYS
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {"m", "n", "k", "algorithm"} - set(doc)
        if missing:
            raise ConfigError(f"missing scenario keys: {sorted(missing)}")

        def grid(key, default):
            v = doc.get(key, default)
            if not isinstance(v, (list, tuple)):
                v = [v]
            for x in v:
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise ConfigError(f"{key} values must be numbers, got {x!r}")
            return tuple(float(x) for x in v)

        oracle = doc.get("oracle", False)
        if not isinstance(oracle, bool):
            raise ConfigError(f"oracle must be true or false, got {oracle!r}")
        out = doc.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out must be a path string, got {out!r}")

        s = cls(
            m=config_int(doc, "m"),
            n=config_int(doc, "n"),
            k=config_int(doc, "k"),
            algorithm=doc["algorithm"],
            sap_grid=grid("sap", 0.0),
            pef_grid=grid("pef", 1.0),
            trials=config_int(doc, "trials", 1),
            master_seed=config_int(doc, "seed", 0),
            max_slots=None if doc.get("max_slots") is None else config_int(doc, "max_slots"),
            compute_oracle=oracle,
            out=out,
        )
        s.validate()
        return s

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; known: {ALGORITHMS}"
            )
        if self.m < 2:
            raise ConfigError(f"need m >= 2, got {self.m}")
        if not 1 <= self.k <= self.n - 1:
            raise ConfigError(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")
        if self.m * self.k < self.n:
            raise ConfigError(
                f"m*k = {self.m * self.k} < n = {self.n}: union can never cover"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not self.sap_grid or not self.pef_grid:
            raise ConfigError("sap and pef grids must be nonempty")
        for name, grid in (("sap", self.sap_grid), ("pef", self.pef_grid)):
            if any(not 0.0 <= v <= 1.0 for v in grid):
                raise ConfigError(f"{name} grid values must lie in [0, 1]")
        if self.max_slots is not None and self.max_slots < 1:
            raise ConfigError("max_slots must be >= 1 when given")
        # Contradictory combinations would mislabel rows; reject them.
        if self.algorithm == "pepa" and any(v != 0.0 for v in self.sap_grid):
            raise ConfigError("pepa forces sap = 0; use sap [0] or algorithm lspa")
        if self.algorithm == "lfs" and (
            any(v != 0.0 for v in self.sap_grid) or any(v != 1.0 for v in self.pef_grid)
        ):
            raise ConfigError("lfs forces sap = 0 and pef = 1")
        if self.algorithm == "randomized" and (
            self.sap_grid != (0.0,) or self.pef_grid != (1.0,)
        ):
            raise ConfigError(
                "the randomized algorithm ignores sap/pef; use sap [0], pef [1]"
            )

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "algorithm": self.algorithm,
            "sap": list(self.sap_grid),
            "pef": list(self.pef_grid),
            "trials": self.trials,
            "seed": self.master_seed,
            "max_slots": self.max_slots,
            "oracle": self.compute_oracle,
        }

    @property
    def scenario_id(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def cells(self) -> list[tuple[int, float, float]]:
        return [
            (idx, sap, pef)
            for idx, (sap, pef) in enumerate(product(self.sap_grid, self.pef_grid))
        ]


def trial_seed(master_seed: int, cell_index: int, trial: int) -> int:
    ss = np.random.SeedSequence([master_seed, cell_index, trial])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_one(s: Scenario, task: tuple[int, float, float, int]) -> TrialRecord:
    cell_index, sap, pef, trial = task
    tseed = trial_seed(s.master_seed, cell_index, trial)
    inst = make_instance(
        s.m, s.n, s.k,
        np.random.default_rng(np.random.SeedSequence([tseed, 0])),
        sap=sap, pef=pef, seed=tseed,
    )
    trace = run_simulation(
        inst, s.algorithm, seed=np.random.SeedSequence([tseed, 1]),
        max_slots=s.max_slots,
    )
    aggregate = trace.aggregate()

    poc_exact = poc_bound = None
    if sap == 0.0:
        bound = aggregate_upper_bound(s.m, s.n)
        poc_bound = price_of_choices(bound, aggregate)
        if s.compute_oracle and s.m <= ORACLE_MAX_M and s.n <= ORACLE_MAX_N:
            try:
                alpha = optimal_aggregate(inst).alpha_star
            except BudgetExceededError:
                alpha = None
            if alpha is not None:
                poc_exact = price_of_choices(alpha, aggregate)

    return TrialRecord(
        scenario_id=s.scenario_id,
        algorithm=s.algorithm,
        m=s.m,
        n=s.n,
        k=s.k,
        sap=sap,
        pef=pef,
        trial=trial,
        seed=tseed,
        r_end=trace.r_end,
        truncated=trace.truncated,
        aggregate=aggregate,
        downloads=trace.total_downloads(),
        nmac=nmac(trace.final, s.n),
        nmsd=nmsd(trace.final, s.n),
        poc_exact=poc_exact,
        poc_bound=poc_bound,
    )


def run_scenario(s: Scenario, jobs: int = 1) -> list[TrialRecord]:
    """All (cell, trial) runs, ordered by (cell index, trial).

    Trials are independent and seeded individually, so the result is
    invariant to execution order and to `jobs`.
    """
    s.validate()
    tasks = [
        (cell_index, sap, pef, trial)
        for cell_index, sap, pef in s.cells()
        for trial in range(s.trials)
    ]
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_one(s, t) for t in tasks]
    chunk = max(1, len(tasks) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(partial(_run_one, s), tasks, chunksize=chunk))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_results(records, format: str = "csv", path: str | None = None) -> str:
    """Render records to CSV (exact column contract, empty field for absent
    values) or JSON (null for absent), optionally writing to `path`.
    Deterministic byte-for-byte for identical records."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_csv_cell(getattr(r, col)) for col in CSV_COLUMNS])
        text = buf.getvalue()
    elif format == "json":
        rows = [{col: getattr(r, col) for col in CSV_COLUMNS} for r in records]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {format!r}; use csv or json")
    if path is not None:
        write_text(path, text)
    return text


def write_text(path: str, text: str) -> None:
    """Write `text` to `path`; an OSError names the path."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"writing {path}: {e}") from e


def manifest_path(results_path: str) -> str:
    return results_path + ".manifest.json"


def write_manifest(s: Scenario, record_count: int, results_path: str) -> str:
    """Self-describing provenance next to the results.  No timestamp: reruns
    of the same scenario must be byte-identical."""
    doc = {
        "scenario": s.to_dict(),
        "scenario_id": s.scenario_id,
        "tool": {"name": "segswap", "version": __version__},
        "master_seed": s.master_seed,
        "records": record_count,
    }
    path = manifest_path(results_path)
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def run_and_emit(
    s: Scenario, format: str = "csv", path: str | None = None, jobs: int = 1
) -> tuple[list[TrialRecord], str]:
    records = run_scenario(s, jobs=jobs)
    text = emit_results(records, format=format, path=path)
    if path is not None:
        write_manifest(s, len(records), path)
    return records, text
