"""The segswap benchmark: closed-loop Monte Carlo sweeps, one at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, `jobs=1`: the workload's sweep runs again and again through
`harness.run_and_emit` (CSV and manifest written to a temporary directory
under `bench/out/`), each time under a master seed derived from `--seed`,
until `--seconds` have passed.  Before timing, the same sweep at the default
seed must reproduce its pinned CSV and manifest digests, or the benchmark
exits with status 1; every trial of every sweep is checked against the
output invariants in `failed_trials`.

`--trace 0` reports the end-to-end metrics.  Set-up probes (fresh
interpreters) run spread among the sweeps, and every time is stated at one
fixed host speed, measured by the reference kernel of `hostref`.
`--trace 1` alternates untraced and traced runs of the same sweeps, requires
their digests to match, and reports the per-layer metrics of
`tracer.layer_metrics`; the spans go to `bench/out/spans-<workload>.tsv`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import hostref
from tracer import Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, import_segswap

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# Fresh interpreters started per run to time set-up, spread evenly over the
# run so that they meet the same phases of the host as the sweeps; the median
# is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30


@dataclass(frozen=True)
class Sweep:
    wall_s: float
    attempted: int
    failed: int
    csv_sha256: str | None
    manifest_sha256: str | None

    @property
    def trials_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def sweep_seed(seed: int, index: int) -> int:
    """Master seed of the `index`-th timed sweep of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def failed_trials(records, m: int, n: int) -> int:
    """Records that break an output invariant.

    The bound n*m - (m mod 2) is computed here rather than taken from the
    package under test.
    """
    bound = n * m - m % 2
    bad = 0
    for r in records:
        ok = not r.truncated and 0 < r.nmac <= 1
        if r.sap == 0.0:
            ok = ok and r.aggregate <= bound and r.poc_bound is not None and r.poc_bound >= 1
        if r.poc_exact is not None:
            ok = ok and r.poc_bound is not None and 1 <= r.poc_exact <= r.poc_bound
        bad += not ok
    return bad


def run_sweep(harness, workload, master_seed: int, path: Path, call=None) -> Sweep:
    """One sweep through `run_and_emit` (or `call`, which wraps it), timed.

    A sweep that raises counts every one of its trials as failed.
    """
    scenario = harness.Scenario.from_dict(workload.scenario_doc(master_seed))
    attempted = len(scenario.cells()) * scenario.trials
    call = call or harness.run_and_emit
    start = time.perf_counter()
    try:
        records, _ = call(scenario, format="csv", path=str(path), jobs=1)
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Sweep(wall, attempted, attempted, None, None)
    wall = time.perf_counter() - start
    failed = failed_trials(records, scenario.m, scenario.n) + max(0, attempted - len(records))
    manifest = Path(harness.manifest_path(str(path)))
    return Sweep(wall, attempted, min(failed, attempted), _sha256(path), _sha256(manifest))


def check_pinned(harness, workload, workdir: Path) -> None:
    """The workload's sweep at the default seed must reproduce the pinned
    CSV and manifest byte for byte.  Also serves as the warm-up."""
    sw = run_sweep(harness, workload, DEFAULT_SEED, workdir / "pinned.csv")
    got = (sw.csv_sha256, sw.manifest_sha256)
    want = (workload.csv_sha256, workload.manifest_sha256)
    if got != want:
        raise SystemExit(
            f"bench: {workload.name} at seed {DEFAULT_SEED}: output digests "
            f"(csv {got[0]}, manifest {got[1]}) differ from the pinned "
            f"(csv {want[0]}, manifest {want[1]})"
        )


def setup_probe(workload) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up
    trial."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    return float(done.stdout.split()[-1]) - start


def untraced_run(harness, workload, seed: int, seconds: float, workdir: Path):
    """The timed sweeps, with `SETUP_PROBES` set-up probes spread evenly
    among them.

    Returns the sweeps, the probes' wall seconds, and the seconds of each
    stated at the reference host speed: the reference kernel runs before
    every sweep and probe and after the last (`hostref.scaled`).
    """
    sweeps, setups, walls, refs = [], [], [], [hostref.time_kernel()]
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        probe_due = (len(setups) < SETUP_PROBES
                     and elapsed >= len(setups) * seconds / SETUP_PROBES)
        # Until the deadline, a sweep runs between two probes.
        if probe_due and (not walls or walls[-1][0] == "sweep" or elapsed >= seconds):
            setups.append(setup_probe(workload))
            walls.append(("setup", setups[-1]))
        elif elapsed < seconds or not sweeps:
            master = sweep_seed(seed, len(sweeps))
            sweeps.append(run_sweep(harness, workload, master, workdir / "sweep.csv"))
            walls.append(("sweep", sweeps[-1].wall_s))
        else:
            break
        refs.append(hostref.time_kernel())
    at_ref = hostref.scaled([wall for _, wall in walls], refs)
    sweep_ref_s = [t for (kind, _), t in zip(walls, at_ref) if kind == "sweep"]
    setup_ref_s = [t for (kind, _), t in zip(walls, at_ref) if kind == "setup"]
    return sweeps, setups, sweep_ref_s, setup_ref_s, refs


def traced_run(segswap, workload, seed: int, seconds: float, workdir: Path):
    """Pairs of untraced and traced runs of the same sweep, alternating which
    goes first.  Returns (untraced sweeps, traced sweeps, tracer)."""
    harness = segswap.harness
    tracer = Tracer(segswap)
    plain_sweeps, traced_sweeps = [], []
    deadline = time.perf_counter() + seconds
    while not plain_sweeps or time.perf_counter() < deadline:
        index = len(plain_sweeps)
        master = sweep_seed(seed, index)

        def plain():
            return run_sweep(harness, workload, master, workdir / "plain.csv")

        def traced():
            with tracer.installed():
                return run_sweep(harness, workload, master, workdir / "traced.csv",
                                 call=partial(tracer.sweep, harness.run_and_emit))

        if index % 2 == 0:
            p, t = plain(), traced()
        else:
            t, p = traced(), plain()
        if (p.csv_sha256, p.manifest_sha256) != (t.csv_sha256, t.manifest_sha256):
            raise SystemExit(
                f"bench: traced sweep {index} (master seed {master}) changed the output"
            )
        plain_sweeps.append(p)
        traced_sweeps.append(t)
    return plain_sweeps, traced_sweeps, tracer


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(sweeps: list[Sweep], setups: list[float], sweep_ref_s: list[float],
               setup_ref_s: list[float], refs: list[float], peak_mb: float) -> dict:
    """The end-to-end metrics.  Times are stated at the reference host speed
    (`hostref`); the wall-clock medians are printed beside them."""
    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    rates = [(s.attempted - s.failed) / t for s, t in zip(sweeps, sweep_ref_s)]
    # The slow tail: the rate with ten slower sweeps below it, when there are.
    tail = f", 11th slowest {sorted(rates)[10]:.4g}" if len(rates) > 10 else ""
    print(f"trials_per_s {statistics.median(rates)!r} 1/s "
          f"(median of {len(rates)} sweeps at reference speed; min {min(rates):.4g}{tail}, "
          f"max {max(rates):.4g}; wall clock {statistics.median(s.trials_per_s for s in sweeps):.4g}; "
          f"kernel median {statistics.median(refs):.4g} s, reference {hostref.REF_S} s)")
    print(f"setup_s {statistics.median(setup_ref_s)!r} s "
          f"(median of {len(setup_ref_s)} fresh interpreters at reference speed: "
          f"{', '.join(f'{t:.4g}' for t in setup_ref_s)}; wall clock {statistics.median(setups):.4g})")
    print(f"peak_rss_mb {peak_mb!r} MB (fresh process after the default-seed sweep; "
          f"{_peak_rss_mb():.4g} MB after the timed sweeps)")
    print(f"error_rate {failed / attempted!r} ratio ({failed} of {attempted} trials failed)")
    return {
        "trials_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_ref_s), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(plain: list[Sweep], traced: list[Sweep], tracer: Tracer) -> dict:
    metrics = layer_metrics(
        tracer, sum(s.attempted for s in traced),
        traced_s=sum(s.wall_s for s in traced),
        untraced_s=sum(s.wall_s for s in plain),
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    segswap = import_segswap()

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        check_pinned(segswap.harness, workload, workdir)
        # The high-water mark is taken over the fixed default-seed sweep: a
        # maximum over seed-drawn trials would vary with the rarest trial
        # (and the allocator's luck) rather than with the program.
        peak_mb = _peak_rss_mb()
        if args.trace:
            plain, traced, tracer = traced_run(
                segswap, workload, args.seed, args.seconds, workdir)
            tracer.write_spans(OUT_DIR / f"spans-{workload.name}.tsv")
            metrics = per_layer(plain, traced, tracer)
            sweeps = plain + traced
        else:
            sweeps, *timings = untraced_run(
                segswap.harness, workload, args.seed, args.seconds, workdir)
            metrics = end_to_end(sweeps, *timings, peak_mb)

    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
