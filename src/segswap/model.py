"""Core domain model: segment sets over a fixed universe, problem instances
with per-node SAP and PEF values, and random instance generation.

Segments are 0-indexed internally; any human-facing rendering that lists raw
segments should 1-index them.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class InvalidParameterError(ValueError):
    """A parameter lies outside its documented domain."""


class GenerationError(RuntimeError):
    """Rejection sampling exceeded its attempt cap."""


def require_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """`value` as an int if it is an integer (Python or numpy) in lo..hi,
    either end open when None: bools, floats and strings are rejected,
    never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in {lo}..{hi}"
        raise InvalidParameterError(f"{what} must be an integer {bounds}, got {value}")
    return value


def require_probability(value: float, what: str) -> float:
    """`value` if it lies in [0, 1]; NaN does not."""
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{what} must lie in [0, 1], got {value}")
    return value


def require_real(value, what: str) -> float:
    """`value` as a float if it is a real number (Python or numpy); bools,
    strings and callables are rejected, never coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{what} must be a real number, got {value!r}")
    return float(value)


# The one memory budget: every size check below and in `strategies`,
# `oracle` and `harness` refuses an input whose estimate passes it.
MAX_BYTES = 1 << 30


def require_bytes(need: int, what: str) -> None:
    """Raise InvalidParameterError if `what` may hold `need` bytes, more
    than MAX_BYTES.  The message rounds `need` up to whole MiB, so that a
    refused estimate never reads as at or below the limit."""
    if need > MAX_BYTES:
        raise InvalidParameterError(
            f"{what} may hold {-(-need >> 20)} MiB, over the {MAX_BYTES >> 20} MiB limit"
        )


# Bytes per m*n entry of one generation attempt: its float64 sort keys,
# their sorted copy and the boolean table of chosen segments (tracemalloc
# peaks of one attempt at (2, 10**6, 999,999), (4, 5*10**5, 499,990) and
# (20, 5*10**4, 49,000): 17.0 each).
_ATTEMPT_BYTES = 17


def check_shape(m, n, k) -> tuple[int, int, int]:
    """(m, n, k) as ints if m k-subsets of n segments can form a valid
    instance (m >= 2, n >= 2, 1 <= k <= n-1 and m*k >= n) and one generation
    attempt of `make_instance` fits in MAX_BYTES."""
    m = require_int(m, "m", lo=2)
    n = require_int(n, "n", lo=2)
    k = require_int(k, "k", lo=1, hi=n - 1)
    if m * k < n:
        raise InvalidParameterError(
            f"m*k = {m * k} < n = {n}: the union can never cover the universe"
        )
    require_bytes(_ATTEMPT_BYTES * m * n, f"a generation attempt at m={m}, n={n}")
    return m, n, k


# ---------------------------------------------------------------------------
# Segment sets


@dataclass(frozen=True)
class SegmentSet:
    """A subset of {0..n-1} over a fixed universe of n segments.

    Stored as an integer bitmask so that union/containment checks cost one
    machine word operation for the universe sizes this toolkit targets.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        # Plain ints skip require_int (sets are built in every slot); numpy
        # integers are stored as ints, and bools, floats and strings raise.
        if type(self.n) is not int or type(self.mask) is not int:
            object.__setattr__(self, "n", require_int(self.n, "universe size"))
            object.__setattr__(self, "mask", require_int(self.mask, "mask"))
        if self.n < 0:
            raise InvalidParameterError(f"universe size must be >= 0, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise InvalidParameterError(
                f"mask {self.mask:#x} not a subset of a {self.n}-segment universe"
            )

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "SegmentSet":
        """The set of `members`, each an integer (Python or numpy) in
        0..n-1; bools, floats and strings are rejected, never coerced."""
        mask = 0
        for s in members:
            mask |= 1 << require_int(s, "segment", lo=0, hi=n - 1)
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.n) if self.mask >> s & 1)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def _check_universe(self, other: "SegmentSet") -> None:
        if self.n != other.n:
            raise InvalidParameterError(
                f"sets live in different universes (n={self.n} vs n={other.n})"
            )

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"SegmentSet({{{', '.join(map(str, self.members()))}}}, n={self.n})"


def universe_mask(n: int) -> int:
    return (1 << n) - 1


def sets_from_bytes(data: bytes, n: int, width: int) -> list[SegmentSet]:
    """The sets over n segments held in `data` as little-endian rows of
    `width` bytes each, one row per set."""
    return [
        SegmentSet(n, int.from_bytes(data[at:at + width], "little"))
        for at in range(0, len(data), width)
    ]


# ---------------------------------------------------------------------------
# Per-node values (SAP and PEF)


def per_node_values(x, m: int, what: str) -> tuple[float, ...]:
    """m floats from one real number (numpy scalars included) or from a
    length-m list or tuple of them; bools, strings and callables are
    rejected, never coerced.  The [0, 1] range is checked where a run
    starts, against the values the algorithm actually uses."""
    if not isinstance(x, (list, tuple)):
        return (require_real(x, what),) * m
    if len(x) != m:
        raise InvalidParameterError(f"expected {m} per-node {what} values, got {len(x)}")
    return tuple(require_real(v, what) for v in x)


# ---------------------------------------------------------------------------
# Instances and slot state


@dataclass(frozen=True)
class Instance:
    """Immutable problem definition.

    Construction does not enforce the A2 assumptions (nonempty proper sets
    covering the universe); use validate_instance to obtain a violation
    report, or make_instance which generates valid-by-construction instances.
    """

    m: int
    n: int
    initial_sets: tuple[SegmentSet, ...]
    sap: tuple[float, ...]
    pef: tuple[float, ...]
    k: int | None = None
    seed: int | None = None

    @classmethod
    def build(
        cls,
        n: int,
        initial_sets: Sequence,
        sap=0.0,
        pef=1.0,
        k: int | None = None,
        seed: int | None = None,
    ) -> "Instance":
        """An instance over n segments; n, and k and seed when given, must
        be integers (Python or numpy), stored as ints."""
        n = require_int(n, "n")
        k = None if k is None else require_int(k, "k")
        seed = None if seed is None else require_int(seed, "seed")
        sets = tuple(
            s if isinstance(s, SegmentSet) else SegmentSet.from_members(n, s)
            for s in initial_sets
        )
        if not sets:
            raise InvalidParameterError("an instance needs at least one node")
        for s in sets:
            if s.n != n:
                raise InvalidParameterError("initial set universe size mismatch")
        m = len(sets)
        return cls(
            m=m,
            n=n,
            initial_sets=sets,
            sap=per_node_values(sap, m, "sap"),
            pef=per_node_values(pef, m, "pef"),
            k=k,
            seed=seed,
        )


@dataclass
class SlotState:
    """Mutable simulation state at the start of slot `slot` (1-based), owned
    by exactly one run."""

    slot: int
    sets: list[SegmentSet]
    downloads: list[int]

    @classmethod
    def initial(cls, inst: Instance) -> "SlotState":
        return cls(slot=1, sets=list(inst.initial_sets), downloads=[0] * inst.m)

    @property
    def m(self) -> int:
        return len(self.sets)

    def aggregate(self) -> int:
        return sum(s.mask.bit_count() for s in self.sets)

    def total_downloads(self) -> int:
        return sum(self.downloads)


# ---------------------------------------------------------------------------
# Generation and validation


# Most doubles one batch of generation attempts may draw: it bounds the
# batch's keys and their sort, whatever m and n are.
_GEN_BATCH = 16_384
# Attempts make_instance draws before it gives up with GenerationError.
_MAX_ATTEMPTS = 10_000


def make_instance(
    m: int,
    n: int,
    k: int,
    rng: np.random.Generator,
    *,
    sap=0.0,
    pef=1.0,
    seed: int | None = None,
) -> Instance:
    """Draw m uniformly random k-subsets of {0..n-1}, rejecting whole draws
    until their union covers the universe.

    Whole-instance rejection (rather than repair) preserves the conditional
    uniform law. k <= n-1 guarantees proper subsets; m*k >= n is necessary
    for coverage.

    Attempts are drawn and tested in batches: one batch is a (b, m, n) draw
    of sort keys, which consumes the doubles of b one-at-a-time attempts in
    the same order.  A node's set is the segments whose key is at most its
    row's k-th smallest key: the first k positions of the permutation that
    argsorts the row.  The two differ only if two doubles of a row tie
    exactly at the k-th key; doubles are multiples of 2**-53, so that
    almost never happens, and argsort's order on such a tie is not
    specified either.  The first covering attempt is returned.  If it is
    not the batch's last, the generator is rewound to the batch start and
    advanced by exactly the attempts up to it, so the instance and the
    generator state afterwards are those of drawing one attempt at a time.
    b starts at 1 and doubles after each batch without a cover, up to
    `_GEN_BATCH // (m*n)` attempts (at least one) and what is left of the
    `_MAX_ATTEMPTS` cap.
    """
    m, n, k = check_shape(m, n, k)
    cap = max(1, _GEN_BATCH // (m * n))
    done, b = 0, 1
    while done < _MAX_ATTEMPTS:
        b = min(b, cap, _MAX_ATTEMPTS - done)
        start = rng.bit_generator.state
        # Random sort keys give m independent uniform permutations; the first
        # k positions of each are a uniform k-subset.
        keys = rng.random((b, m, n))
        chosen = keys <= np.sort(keys, axis=2)[:, :, k - 1:k]
        covered = np.flatnonzero(chosen.any(axis=1).all(axis=1))
        if covered.size:
            j = int(covered[0])
            if j < b - 1:
                rng.bit_generator.state = start
                rng.random((j + 1) * m * n)
            data = np.packbits(chosen[j], axis=1, bitorder="little").tobytes()
            sets = sets_from_bytes(data, n, len(data) // m)
            return Instance.build(n, sets, sap=sap, pef=pef, k=k, seed=seed)
        done += b
        b *= 2
    raise GenerationError(
        f"no covering draw in {_MAX_ATTEMPTS} attempts for (m={m}, n={n}, k={k})"
    )


def validate_instance(inst: Instance) -> str | None:
    """Return a description of the first violated assumption, or None if ok.

    Checks, in order: nonempty sets, proper sets, union coverage, SAP and
    PEF in [0, 1].
    """
    for i, s in enumerate(inst.initial_sets):
        if s.is_empty:
            return f"node {i} initial set is empty"
    for i, s in enumerate(inst.initial_sets):
        if s.is_full:
            return f"node {i} holds the full universe"
    union = 0
    for s in inst.initial_sets:
        union |= s.mask
    if union != universe_mask(inst.n):
        missing = [s for s in range(inst.n) if not union >> s & 1]
        return f"union of initial sets is not the universe (missing {missing})"
    for name, values in (("sap", inst.sap), ("pef", inst.pef)):
        for i, v in enumerate(values):
            if not 0.0 <= v <= 1.0:
                return f"node {i} {name} value {v} outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# Serialization: keys m, n, k (optional), initial_sets, sap, pef, seed
# (optional)

_INSTANCE_KEYS = {"m", "n", "k", "initial_sets", "sap", "pef", "seed"}


def _per_node_to_value(values: tuple[float, ...]):
    if all(v == values[0] for v in values):
        return values[0]
    return list(values)


def instance_to_dict(inst: Instance) -> dict:
    doc = {
        "m": inst.m,
        "n": inst.n,
        "initial_sets": [list(s.members()) for s in inst.initial_sets],
        "sap": _per_node_to_value(inst.sap),
        "pef": _per_node_to_value(inst.pef),
    }
    if inst.k is not None:
        doc["k"] = inst.k
    if inst.seed is not None:
        doc["seed"] = inst.seed
    return doc


def instance_from_dict(doc: dict) -> Instance:
    """The inverse of `instance_to_dict`: unknown keys are rejected, and n, m,
    k, seed and every segment id must be true integers (`Instance.build`
    checks all but m, which only the document carries)."""
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise InvalidParameterError(f"unknown instance keys: {sorted(unknown)}")
    if None in (doc.get("k", 0), doc.get("seed", 0)):
        raise InvalidParameterError("k and seed must be integers when present, got null")
    inst = Instance.build(
        n=doc["n"],
        initial_sets=doc["initial_sets"],
        sap=doc.get("sap", 0.0),
        pef=doc.get("pef", 1.0),
        k=doc.get("k"),
        seed=doc.get("seed"),
    )
    if "m" in doc and require_int(doc["m"], "m") != inst.m:
        raise InvalidParameterError(
            f"document says m={doc['m']} but lists {inst.m} initial sets"
        )
    return inst


def dump_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def load_instance(text: str) -> Instance:
    return instance_from_dict(json.loads(text))
