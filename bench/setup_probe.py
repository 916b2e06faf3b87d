"""Set-up probe for one workload, run in a fresh interpreter.

Imports numpy and segswap, runs one warm-up trial of the workload at the
default seed, and prints the monotonic clock reading at which a first timed
trial could start.  `run.py` subtracts its own reading taken just before it
started this process; both use CLOCK_MONOTONIC, which is system-wide.

Usage: python3 bench/setup_probe.py <workload>
"""

import sys
import time

from workloads import WORKLOADS, import_segswap


def main(argv: list[str]) -> None:
    workload = WORKLOADS[argv[1]]
    import_segswap()
    from segswap.harness import Scenario, run_scenario

    records = run_scenario(Scenario.from_dict(workload.warmup_doc()))
    stamp = time.monotonic()
    if len(records) != 1:
        raise SystemExit(f"bench: warm-up gave {len(records)} records, expected 1")
    print(repr(stamp))


if __name__ == "__main__":
    main(sys.argv)
