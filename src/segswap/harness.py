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
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import product

import numpy as np

from . import __version__
from .metrics import CSV_COLUMNS, TrialRecord, nmac, nmsd, price_of_choices
from .model import (
    InvalidParameterError,
    check_shape,
    make_instance,
    require_bytes,
    require_int,
    require_probability,
    require_real,
)
from .oracle import BudgetExceededError, aggregate_upper_bound, optimal_aggregate
from .strategies import ALGORITHMS, FORCED, engine_bytes, require_engine_fits, run_simulation

# The exhaustive oracle is only consulted inside its intended search budget.
ORACLE_MAX_M = 6
ORACLE_MAX_N = 10
# Worker processes a run may ask for; more is refused before any pool exists.
MAX_JOBS = 64
# Bytes one record may hold until `run_and_emit` has rendered it: under
# tracemalloc, sweeps of 5,000 and 20,000 records (lfs at (2,2,1) and
# (60,100,10), lspa at (4,6,2), pepa and randomized at (6,10,3) with every
# poc_exact set by the oracle, randomized at (20,50,6)) peaked at 0.44-0.73
# KB per record in `run_scenario` (tasks and records), 0.61-0.91 KB while
# `emit_results` built the CSV and 1.42-1.75 KB while it built the JSON.
RECORD_BYTES = 2048


class ConfigError(ValueError):
    """The scenario configuration is structurally or semantically invalid."""


@contextmanager
def _config_errors():
    """Re-raise an InvalidParameterError as a ConfigError (exit 1)."""
    try:
        yield
    except InvalidParameterError as e:
        raise ConfigError(str(e)) from None


def check_jobs(jobs, name: str = "jobs") -> int:
    """`jobs` as an int if it is an integer in 1..MAX_JOBS, else a
    ConfigError, raised before any process pool exists."""
    with _config_errors():
        return require_int(jobs, name, lo=1, hi=MAX_JOBS)


# config key -> Scenario field
_SCENARIO_KEYS = {
    "m": "m", "n": "n", "k": "k", "algorithm": "algorithm", "sap": "sap_grid",
    "pef": "pef_grid", "trials": "trials", "seed": "master_seed",
    "max_slots": "max_slots", "oracle": "compute_oracle", "out": "out",
}


@dataclass(frozen=True)
class Scenario:
    """One experiment: a (sap, pef) grid of Monte Carlo cells at fixed
    (m, n, k) for one algorithm.  SAP and PEF are the same on every node
    within a cell; per-node values stay library-only (`Instance.build`).

    Valid by construction, however it is built, or a ConfigError naming
    the first invalid field.  Integers are stored as ints and a grid (one
    real number, or a list or tuple of them) as a tuple of floats.  The
    shape, one run's arrays and cells x trials x RECORD_BYTES must each fit
    in the memory budget, `model.MAX_BYTES`.
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
    # the first 12 hex digits of the SHA-256 of the sorted-key JSON of
    # `to_dict()`, set once when the scenario is built
    scenario_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; known: {ALGORITHMS}")
        with _config_errors():
            m, n, k = check_shape(self.m, self.n, self.k)
            require_engine_fits(m, n, self.algorithm)
            fields = dict(
                m=m, n=n, k=k,
                trials=require_int(self.trials, "trials", lo=1),
                master_seed=require_int(self.master_seed, "seed", lo=0),
                max_slots=None if self.max_slots is None else require_int(
                    self.max_slots, "max_slots", lo=1
                ),
            )
            for name, forced in zip(("sap", "pef"), FORCED[self.algorithm]):
                grid = getattr(self, f"{name}_grid")
                if not isinstance(grid, (list, tuple)):
                    grid = (grid,)
                if not grid:
                    raise InvalidParameterError(f"the {name} grid must be nonempty")
                what = f"{name} grid value"
                grid = tuple(require_probability(require_real(v, what), what) for v in grid)
                # Any other grid would label rows with a value the run ignores.
                if forced is not None and grid != (forced,):
                    raise InvalidParameterError(
                        f"{self.algorithm} forces {name} = {forced}: its grid must be [{forced}]"
                    )
                fields[f"{name}_grid"] = grid
            records = len(fields["sap_grid"]) * len(fields["pef_grid"]) * fields["trials"]
            require_bytes(RECORD_BYTES * records, f"a sweep of {records} records")
        if not isinstance(self.compute_oracle, bool):
            raise ConfigError(f"oracle must be true or false, got {self.compute_oracle!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        canon = json.dumps(self.to_dict(), sort_keys=True)
        object.__setattr__(self, "scenario_id", hashlib.sha256(canon.encode()).hexdigest()[:12])

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """The scenario of a config document; absent keys take the field
        defaults."""
        unknown = set(doc) - _SCENARIO_KEYS.keys()
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {"m", "n", "k", "algorithm"} - set(doc)
        if missing:
            raise ConfigError(f"missing scenario keys: {sorted(missing)}")
        return cls(**{_SCENARIO_KEYS[key]: value for key, value in doc.items()})

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
    invariant to execution order and to `jobs`, which `check_jobs` bounds
    first.  The pool holds min(jobs, runs) workers, and the runs they hold
    side by side must fit in the memory budget, `model.MAX_BYTES`, or a
    ConfigError is raised before any pool exists.
    """
    jobs = check_jobs(jobs)
    tasks = [
        (cell_index, sap, pef, trial)
        for cell_index, sap, pef in s.cells()
        for trial in range(s.trials)
    ]
    workers = min(jobs, len(tasks))
    with _config_errors():
        require_bytes(
            workers * engine_bytes(s.m, s.n, s.algorithm),
            f"the arrays of {workers} runs at m={s.m}, n={s.n} side by side",
        )
    if workers == 1:
        return [_run_one(s, t) for t in tasks]
    # imported here: the pool pulls in multiprocessing, which a sweep on one
    # worker never needs
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(_run_one, s), tasks, chunksize=chunk))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


FORMATS = ("csv", "json")


def check_format(format: str) -> None:
    """Raise ConfigError unless `format` is one of FORMATS."""
    if format not in FORMATS:
        raise ConfigError(f"unknown output format {format!r}; use csv or json")


def emit_results(records, format: str = "csv", path: str | None = None) -> str:
    """Render records to CSV (exact column contract, empty field for absent
    values) or JSON (null for absent), optionally writing to `path`.
    Deterministic byte-for-byte for identical records."""
    check_format(format)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_csv_cell(getattr(r, col)) for col in CSV_COLUMNS])
        text = buf.getvalue()
    else:
        # json.dumps(rows, indent=2), one row at a time: with an indent the
        # encoder holds every row's small string chunks until it joins them
        body = ",\n".join(
            "  " + json.dumps({col: getattr(r, col) for col in CSV_COLUMNS}, indent=2)
            .replace("\n", "\n  ")
            for r in records
        )
        text = ("[\n" + body + "\n]" if body else "[]") + "\n"
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


def check_out_dir(path: str | None) -> None:
    """Raise ConfigError if the output path `path` is empty, ends in a path
    separator, names an existing directory, or lies in a directory that
    does not exist, so that such an output is refused before any work."""
    if path is not None:
        if not os.path.basename(path):
            raise ConfigError(f"cannot write {path!r}: the path names no file")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write {path}: no directory {folder}")


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
    """Run `s` and render its records; with a `path`, write them and the
    manifest there.  An unknown `format` is refused first, and so is any
    `path` that `check_out_dir` refuses or that exists and is not a regular
    file (a device such as /dev/null), whose manifest would go next to it."""
    check_format(format)
    check_out_dir(path)
    if path is not None and os.path.exists(path) and not os.path.isfile(path):
        raise ConfigError(
            f"cannot write {path}: not a regular file, and its manifest "
            f"{manifest_path(path)} would go next to it"
        )
    records = run_scenario(s, jobs=jobs)
    text = emit_results(records, format=format, path=path)
    if path is not None:
        write_manifest(s, len(records), path)
    return records, text
