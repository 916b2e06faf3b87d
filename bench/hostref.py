"""Host-speed reference for the benchmark's times.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU guest the
same sweep, at the same seed and in the same process, took from 0.22 to
0.45 s within one minute, in phases of tens of seconds, with next to no steal
time.  A run of 30 s cannot average such phases away, and two sets of runs
half an hour apart differed by up to 40%.

So the benchmark times a fixed kernel beside the program and states each of
its times at one fixed host speed: a time measured while the kernel took `k`
seconds is multiplied by `REF_S / k`.  The kernel mixes the kinds of work
segswap does (interpreted loops over dicts and small ints, a sort with a key
function, a small numpy sort, and a block of random integer picks like the
randomized engine's), so that a slow phase of the host slows both alike.
It runs no segswap code, so a change to segswap moves a scaled time by
exactly the factor by which it moves the wall-clock time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds of one kernel call at the reference speed: about its median on a
# quiet 2.0 GHz Xeon vCPU with Python 3.11 and numpy 2.4.
REF_S = 0.02
# Kernel times on each side of a measurement that set its host speed: the
# median over this window follows drifts of a few seconds and up, while one
# kernel call alone is as noisy as the measurement.
WINDOW = 3


def kernel() -> int:
    """A fixed amount of interpreter and numpy work."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(12_000):
        key = (i * 7919) % 997
        counts[key] = counts.get(key, 0) + 1
        acc ^= hash((key, acc & 0xFF))
    order = sorted(range(8_000), key=lambda x: (x * 2654435761) % 1_000_003)
    rng = np.random.default_rng(12345)
    a = np.sort(rng.random((200, 200)), axis=1)
    picks = rng.integers(0, 199, size=(8_192, 200))
    return acc + order[0] + int(a.argmax()) + int((picks == 3).sum())


def time_kernel(calls: int = 1) -> float:
    """Median wall seconds of `calls` kernel calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """`times[i]`, measured between kernel times `refs[i]` and `refs[i + 1]`,
    each stated at the reference speed."""
    if len(refs) != len(times) + 1:
        raise ValueError("need one kernel time before each measurement and one after the last")
    return [
        t * REF_S / statistics.median(refs[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
        for i, t in enumerate(times)
    ]
