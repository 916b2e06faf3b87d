"""Per-layer tracing of segswap from outside the package.

`Tracer.installed()` swaps timing wrappers onto the public names at their
call sites in `segswap.harness` and `segswap.strategies` and restores the
originals in `finally`.  No file of the package changes.  Each wrapped call
records a span (name, start, end, parent span index, trial id) in memory and
adds to counters taken at the same boundary; `write_spans` writes the spans
out once the run is over, and `layer_metrics` reduces them to the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Wrapped call sites: (module that calls the name, the name, span name).
CALL_SITES = (
    ("harness", "make_instance", "model.make_instance"),
    ("harness", "run_simulation", "strategies.run_simulation"),
    ("harness", "optimal_aggregate", "oracle.optimal_aggregate"),
    ("harness", "emit_results", "harness.emit_results"),
    ("harness", "write_manifest", "harness.write_manifest"),
    ("strategies", "preference_list", "graph.preference_list"),
    ("strategies", "find_stable_matching", "matching.find_stable_matching"),
)
SWEEP = "harness.run_and_emit"


class CountingRng:
    """Forwarding proxy of a numpy Generator that counts the values drawn.

    Every call goes to the wrapped generator unchanged, so the stream and
    therefore the drawn instance are exactly those of the unwrapped run.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.drawn = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.drawn += int(np.size(out))
            return out

        return counted


class Tracer:
    """Spans and counters of one traced pass; owned by one run."""

    def __init__(self, segswap):
        self._modules = {"harness": segswap.harness, "strategies": segswap.strategies}
        self._budget_error = segswap.BudgetExceededError
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.trial: int | None = None

    def timed(self, name: str, fn):
        """`fn` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial)

        return wrapper

    def _wrappers(self, originals: dict) -> dict:
        c = self.counts
        timed = {attr: self.timed(span, originals[attr]) for _, attr, span in CALL_SITES}

        def make_instance(m, n, k, rng, **kwargs):
            self.trial = kwargs.get("seed")
            proxy = CountingRng(rng)
            inst = timed["make_instance"](m, n, k, proxy, **kwargs)
            c["model.doubles_drawn"] += proxy.drawn
            c["model.attempts"] += proxy.drawn // (m * n)
            return inst

        def run_simulation(*args, **kwargs):
            trace = timed["run_simulation"](*args, **kwargs)
            c["strategies.slots"] += trace.r_end
            c["strategies.exchanges"] += sum(len(ev.activations) for _, ev in trace.events)
            c["strategies.downloads"] += trace.total_downloads()
            return trace

        def optimal_aggregate(*args, **kwargs):
            try:
                result = timed["optimal_aggregate"](*args, **kwargs)
            except self._budget_error:
                c["oracle.budget_skips"] += 1
                raise
            c["oracle.states"] += result.states_explored
            return result

        def emit_results(*args, **kwargs):
            self.trial = None
            text = timed["emit_results"](*args, **kwargs)
            c["harness.csv_bytes"] += len(text.encode())
            return text

        def preference_list(i, graph, *args, **kwargs):
            pl = timed["preference_list"](i, graph, *args, **kwargs)
            c["graph.gt_neighbours"] += len(graph.neighbors(i))
            c["graph.entries_kept"] += len(pl.ranked)
            return pl

        def find_stable_matching(lists, *args, **kwargs):
            matching = timed["find_stable_matching"](lists, *args, **kwargs)
            c["matching.listed_nodes"] += sum(1 for pl in lists if pl.ranked)
            c["matching.pairs"] += len(matching.pairs)
            return matching

        wrappers = {
            "make_instance": make_instance,
            "run_simulation": run_simulation,
            "optimal_aggregate": optimal_aggregate,
            "emit_results": emit_results,
            "write_manifest": timed["write_manifest"],
            "preference_list": preference_list,
            "find_stable_matching": find_stable_matching,
        }
        return {attr: functools.wraps(originals[attr])(w) for attr, w in wrappers.items()}

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        originals = {
            attr: getattr(self._modules[mod], attr) for mod, attr, _ in CALL_SITES
        }
        wrappers = self._wrappers(originals)
        try:
            for mod, attr, _ in CALL_SITES:
                setattr(self._modules[mod], attr, wrappers[attr])
            yield self
        finally:
            for mod, attr, _ in CALL_SITES:
                setattr(self._modules[mod], attr, originals[attr])

    def sweep(self, run_and_emit, *args, **kwargs):
        """Run one sweep under a top-level span."""
        self.trial = None
        return self.timed(SWEEP, run_and_emit)(*args, **kwargs)

    def write_spans(self, path) -> None:
        """Tab-separated: name, start, end (perf_counter seconds), parent
        span index (-1 for none), trial seed (empty outside a trial)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\ttrial\n")
            for name, start, end, parent, trial in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{'' if trial is None else trial}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trials: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced pass over `trials` trials.

    Times are seconds per trial; counts are totals over the pass, with
    `harness.trials` as their base.  A span's self time is its duration
    minus that of its child spans (calls are sequential, so they do not
    overlap).
    """
    total: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_s: defaultdict = defaultdict(float)
    for (name, start, end, _, _), c in zip(tracer.spans, child):
        self_s[name] += end - start - c

    sweep = total[SWEEP]
    cnt = tracer.counts
    out = {
        "harness.trials": (trials, "count"),
        "harness.sweep_s": (sweep, "s"),
        "trace_overhead": (_ratio(traced_s, untraced_s) - 1.0, "ratio"),
    }
    for layer, span in (
        ("model.make_instance", "model.make_instance"),
        ("graph.preference_list", "graph.preference_list"),
        ("matching.find_stable_matching", "matching.find_stable_matching"),
        ("strategies.run_simulation", "strategies.run_simulation"),
        ("oracle.optimal_aggregate", "oracle.optimal_aggregate"),
    ):
        out[f"{layer}.s"] = (_ratio(total[span], trials), "s/trial")
        out[f"{layer}.calls"] = (calls[span], "count")
        out[f"{layer}.share"] = (_ratio(total[span], sweep), "ratio")
    emit = total["harness.emit_results"] + total["harness.write_manifest"]
    out.update({
        "model.doubles_drawn": (cnt["model.doubles_drawn"], "count"),
        "model.attempts": (cnt["model.attempts"], "count"),
        "model.attempts_per_instance": (
            _ratio(cnt["model.attempts"], calls["model.make_instance"]), "ratio"),
        "graph.gt_neighbours": (cnt["graph.gt_neighbours"], "count"),
        "graph.entries_kept": (cnt["graph.entries_kept"], "count"),
        "graph.entries_kept_ratio": (
            _ratio(cnt["graph.entries_kept"], cnt["graph.gt_neighbours"]), "ratio"),
        "matching.listed_nodes": (cnt["matching.listed_nodes"], "count"),
        "matching.pairs": (cnt["matching.pairs"], "count"),
        "matching.pair_ratio": (
            _ratio(2 * cnt["matching.pairs"], cnt["matching.listed_nodes"]), "ratio"),
        "strategies.self_s": (_ratio(self_s["strategies.run_simulation"], trials), "s/trial"),
        "strategies.slots": (cnt["strategies.slots"], "count"),
        "strategies.exchanges": (cnt["strategies.exchanges"], "count"),
        "strategies.downloads": (cnt["strategies.downloads"], "count"),
        "strategies.slots_per_s": (
            _ratio(cnt["strategies.slots"], total["strategies.run_simulation"]), "1/s"),
        "oracle.states": (cnt["oracle.states"], "count"),
        "oracle.states_per_s": (
            _ratio(cnt["oracle.states"], total["oracle.optimal_aggregate"]), "1/s"),
        "oracle.budget_skips": (cnt["oracle.budget_skips"], "count"),
        "harness.emit.s": (_ratio(emit, trials), "s/trial"),
        "harness.csv_bytes": (cnt["harness.csv_bytes"], "B"),
        "harness.self_s": (_ratio(self_s[SWEEP], trials), "s/trial"),
    })
    return out
