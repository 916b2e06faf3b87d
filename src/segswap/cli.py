"""Command-line front end.

Subcommands: simulate (one scenario cell), sweep (sap x pef grid), oracle
(exact small-instance optimum), predict (expected-cardinality recurrence).
Exit codes: 0 success, 1 invalid configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import ConfigError, Scenario, config_int, run_and_emit, write_text
from .metrics import predict_expected_cardinality
from .model import InvalidParameterError, instance_from_dict, make_instance
from .oracle import aggregate_upper_bound, optimal_aggregate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segswap",
        description="Simulator and analysis toolkit for give-and-take segment exchange",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, runs: bool):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        if runs:
            p.add_argument("--seed", type=int, default=None, help="override master seed")
            p.add_argument("--trials", type=int, default=None, help="override trial count")
            p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    add_common(sub.add_parser("simulate", help="run one (sap, pef) scenario cell"), True)
    add_common(sub.add_parser("sweep", help="run a sap x pef scenario grid"), True)
    add_common(sub.add_parser("oracle", help="exact optimum for a small instance"), False)
    add_common(sub.add_parser("predict", help="expected-cardinality recurrence"), False)
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _scenario_from_args(args, single_cell: bool) -> Scenario:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.out is not None:
        doc["out"] = args.out
    s = Scenario.from_dict(doc)
    if single_cell and (len(s.sap_grid) > 1 or len(s.pef_grid) > 1):
        raise ConfigError("simulate takes a single (sap, pef) cell; use sweep for grids")
    return s


def _cmd_runs(args, single_cell: bool) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    s = _scenario_from_args(args, single_cell)
    _, text = run_and_emit(s, format=args.format, path=s.out, jobs=args.jobs)
    if s.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    doc = _load_json(args.config)
    max_states = config_int(doc, "max_states", 2_000_000)
    if max_states < 1:
        raise ConfigError(f"max_states must be >= 1, got {max_states}")
    doc.pop("max_states", None)
    if "initial_sets" not in doc:
        if not {"m", "n", "k"} <= set(doc):
            raise ConfigError("oracle config needs initial_sets, or m, n, k (+ optional seed)")
        unknown = set(doc) - {"m", "n", "k", "seed"}
        if unknown:
            raise ConfigError(f"unknown oracle keys: {sorted(unknown)}")
    try:
        if "initial_sets" in doc:
            inst = instance_from_dict(doc)
        else:
            seed = config_int(doc, "seed", 0)
            inst = make_instance(
                config_int(doc, "m"), config_int(doc, "n"), config_int(doc, "k"),
                np.random.default_rng(np.random.SeedSequence(seed)),
                seed=seed,
            )
    except (InvalidParameterError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad oracle config: {e}") from e

    bound = aggregate_upper_bound(inst.m, inst.n)
    full = [i for i, s in enumerate(inst.initial_sets) if s.is_full]
    if full:
        raise ConfigError(
            f"initial sets of nodes {full} are full; the bound assumes no "
            "initial set is full (A2: nonempty proper initial sets)"
        )
    result = optimal_aggregate(inst, max_states=max_states)
    if args.format == "json":
        text = json.dumps(
            {
                "alpha_star": result.alpha_star,
                "bound": bound,
                "states_explored": result.states_explored,
                "witness": [list(p) for p in result.witness],
            },
            indent=2,
        ) + "\n"
    else:
        lines = [
            f"alpha_star {result.alpha_star}",
            f"bound {bound}",
            f"states_explored {result.states_explored}",
        ]
        lines += [f"witness {i} {j}" for i, j in result.witness]
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return 0


def _cmd_predict(args) -> int:
    doc = _load_json(args.config)
    unknown = set(doc) - {"m", "n", "k", "epochs"}
    if unknown:
        raise ConfigError(f"unknown predict keys: {sorted(unknown)}")
    try:
        seq = predict_expected_cardinality(
            *(config_int(doc, key) for key in ("m", "n", "k")),
            config_int(doc, "epochs", 50),
        )
    except (InvalidParameterError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad predict config: {e}") from e
    if args.format == "json":
        text = json.dumps(
            {"m": doc["m"], "n": doc["n"], "k": doc["k"], "expected": seq}, indent=2
        ) + "\n"
    else:
        lines = ["epoch,expected_cardinality"]
        lines += [f"{r},{repr(v)}" for r, v in enumerate(seq, start=1)]
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return 0


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_runs(args, single_cell=True)
        if args.command == "sweep":
            return _cmd_runs(args, single_cell=False)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "predict":
            return _cmd_predict(args)
        raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover
    except (ConfigError, InvalidParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failures: budget, I/O, generation, bugs
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
