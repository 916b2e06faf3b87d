"""Full simulation runs of the four pairing algorithms.

lspa: per-slot stable matching on PEF-truncated lists, SAP downloads for the
unmatched.  pepa: lspa with all SAP forced to 0.  lfs: pepa with all PEF
forced to 1.  randomized: mutual uniform random picks, no downloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import exchange
# preference_list and find_stable_matching define what the slot kernel
# computes; they stay importable from here for per-layer tracing.
from .graph import preference_list  # noqa: F401
from .matching import find_stable_matching  # noqa: F401
from .model import (
    Instance,
    InvalidParameterError,
    SegmentSet,
    SlotState,
    require_int,
    require_probability,
)

# The (sap, pef) each algorithm forces on every node, or None where it runs
# the instance's own per-node values.
FORCED = {
    "lspa": (None, None),
    "pepa": (0.0, None),
    "lfs": (0.0, 1.0),
    "randomized": (0.0, 1.0),
}
ALGORITHMS = tuple(FORCED)

_BLOCK_MIN = 16
_BLOCK_MAX = 65_536
# Rows of picks drawn and checked at a time within a block.
_CHUNK = 4096


@dataclass(frozen=True)
class SlotEvents:
    """What happened in one slot: disjoint GT exchanges, then downloads."""

    activations: tuple[tuple[int, int], ...]
    downloads: tuple[tuple[int, int], ...]

    @property
    def is_empty(self) -> bool:
        return not self.activations and not self.downloads


@dataclass
class Trace:
    """One full run: sparse per-slot events plus the terminal state.

    r_end counts executed slots; after it, no pair satisfies GT and no node
    can still act (unless `truncated`, in which case the slot cap was hit).
    Slots without events are not recorded.
    """

    instance: Instance
    events: tuple[tuple[int, SlotEvents], ...]
    r_end: int
    truncated: bool
    final: SlotState

    def aggregate(self) -> int:
        return self.final.aggregate()

    def total_downloads(self) -> int:
        return self.final.total_downloads()

    def event_log(self) -> str:
        """Line-oriented log: `slot r: exchange i j` / `slot r: download i s`."""
        lines = []
        for slot, ev in self.events:
            for i, j in ev.activations:
                lines.append(f"slot {slot}: exchange {i} {j}")
            for i, s in ev.downloads:
                lines.append(f"slot {slot}: download {i} {s}")
        return "\n".join(lines)


def _mask_matrix(sets: list[SegmentSet], n: int) -> np.ndarray:
    """Node sets as a writable (m, W) uint64 matrix, W = ceil(n / 64);
    segment s is bit s % 64 of word s // 64."""
    words = max(1, -(-n // 64))
    data = b"".join(s.mask.to_bytes(8 * words, "little") for s in sets)
    # astype copies: np.frombuffer's array is read-only, and the engine
    # writes to `masks` in place
    return np.frombuffer(data, dtype="<u8").reshape(len(sets), words).astype(np.uint64)


def _row_mask(row: np.ndarray) -> int:
    return int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little")


def _segment_sets(masks: np.ndarray, n: int) -> list[SegmentSet]:
    data = masks.astype("<u8", copy=False).tobytes()
    size = 8 * masks.shape[1]
    return [
        SegmentSet(n, int.from_bytes(data[at:at + size], "little"))
        for at in range(0, len(data), size)
    ]


def _union_sizes(masks: np.ndarray, rows=slice(None)) -> np.ndarray:
    """U[r, j] = |O_r u O_j| for every selected row r and every node j.

    U has the narrowest unsigned dtype that holds 64*W for W words per
    mask: uint8 up to W = 3 (n <= 192), uint16 up to W = 1023, uint32
    above.  Callers that subtract from or multiply U cast it first.  The
    popcounts are summed one word at a time, so temporaries stay
    O(rows * m).
    """
    sub = masks[rows]
    words = masks.shape[1]
    if words == 1:
        return np.bitwise_count(sub[:, 0, None] | masks[None, :, 0])
    union = np.zeros((len(sub), len(masks)), dtype=np.min_scalar_type(64 * words))
    for w in range(words):
        union += np.bitwise_count(sub[:, w, None] | masks[None, :, w])
    return union


def _union_gt(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union sizes U[i, j] = |O_i u O_j| (so U[i, i] = |O_i|) and the GT
    adjacency U[i, j] > max(|O_i|, |O_j|) for every pair."""
    union = _union_sizes(masks)
    card = union.diagonal()
    return union, (union > card[:, None]) & (union > card[None, :])


def _refresh(
    masks: np.ndarray, union: np.ndarray, gt: np.ndarray, rows: np.ndarray
) -> None:
    """Bring `union` and `gt` up to date after the masks of `rows` changed:
    only those rows and columns are recomputed."""
    u = _union_sizes(masks, rows)
    union[rows] = u
    union[:, rows] = u.T
    card = union.diagonal()
    g = (u > card[rows, None]) & (u > card[None, :])
    gt[rows] = g
    gt[:, rows] = g.T


def _merge(masks: np.ndarray, a, b) -> None:
    """Exchange pairs (a[p], b[p]): both sides end up with the union."""
    merged = masks[a] | masks[b]
    masks[a] = merged
    masks[b] = merged


def _stable_pairs(
    union: np.ndarray, gt: np.ndarray, pef: tuple[float, ...]
) -> list[tuple[int, int]]:
    """The pairs of `find_stable_matching` over every node's PEF-truncated
    `preference_list`, computed from the union-size matrix, sorted.

    Row i ranks its GT neighbours by descending union size, ties by
    ascending id, and keeps the first max(1, floor(pef[i] * deg)); the key
    -U[i, j]*m + j encodes that order in one integer.  Both ends of a pair
    rank it by the same U, and at equal U node i's order j < k agrees with
    the order of the pairs by (min id, max id), so every list follows one
    global order of the pairs, (-U, min id, max id).  Then the stable
    matching is unique and greedy (stable roommates with globally ranked
    pairs; Abraham, Levavi, Manlove & O'Malley, WINE 2007): scan the
    mutually listed pairs in that order and keep each whose ends are both
    free.  A kept pair is the best one left to both its ends, so any
    matching without it, but with the pairs kept before it, is blocked by
    it; by induction every stable matching holds exactly the kept pairs.
    Every pef[i] must lie in [0, 1] (`_run_values` checks it).
    """
    m = len(pef)
    ids = np.arange(m)
    deg = gt.sum(axis=1)
    kept = np.maximum(1, (np.array(pef) * deg).astype(np.int64))  # pef*deg >= 0: floor
    mutual = gt
    if np.count_nonzero(kept < deg):
        # A cut row keeps its entries up to its kept-th smallest key.  GT
        # keys are negative and the others 0, so GT entries sort first.  U
        # is unsigned and may be 8 bits wide: the keys need int64.
        key = np.where(gt, ids - union.astype(np.int64) * m, 0)
        worst = np.sort(key, axis=1)[ids, kept - 1]
        mutual = gt & (key <= worst[:, None])
        mutual &= mutual.T
    # flat indices i*m + j of the mutually listed pairs, i < j, in (i, j) order
    k = np.flatnonzero(mutual & (ids[:, None] < ids))
    if not len(k):
        return []
    # One stable sort by descending U keeps (i, j) order within a size.  The
    # key top - U stays in U's unsigned dtype (0 <= top - U <= top), is
    # exact in min_scalar_type(top) for every n, and numpy radix-sorts it
    # while n < 65,536.
    u = union.ravel()[k]
    top = int(u.max())
    k = k[np.argsort((top - u).astype(np.min_scalar_type(top), copy=False), kind="stable")]
    i = k // m
    # In a run of pairs with the same i, only the first free partner can
    # pair with i, and nothing pairs once i is taken.
    cuts = np.flatnonzero(i[1:] != i[:-1]) + 1
    heads = [int(i[0])] + i[cuts].tolist()
    bounds = [0] + cuts.tolist() + [len(k)]
    # slices of a memoryview give Python ints without converting every pair
    flat = memoryview(k)
    free = bytearray(b"\x01") * m
    pairs = []
    for a, s, e in zip(heads, bounds, bounds[1:]):
        if free[a]:
            for b in flat[s:e]:
                b -= a * m
                if free[b]:
                    free[a] = free[b] = 0
                    pairs.append((a, b))
                    break
    pairs.sort()
    return pairs


def _kernel_slot(
    state: SlotState,
    masks: np.ndarray,
    union: np.ndarray,
    gt: np.ndarray,
    rng: np.random.Generator,
    sap: tuple[float, ...],
    pef: tuple[float, ...],
) -> SlotEvents:
    """One slot of Limited Stable Pairing on the mask matrix.

    Stable pairs exchange against slot-start sets (pairs are disjoint, so
    the order does not matter).  Then each unmatched deficient node, in
    ascending id, downloads one uniformly random missing segment with
    probability sap[i]; the Bernoulli draw consumes the rng stream only for
    0 < sap[i] < 1.  Mutates `masks`, `state.downloads` and `state.slot`.
    """
    n = state.sets[0].n
    pairs = _stable_pairs(union, gt, pef) if gt.any() else []
    if pairs:
        _merge(masks, *np.array(pairs).T)

    paired = {x for pair in pairs for x in pair}
    downloads = []
    for i, card in enumerate(union.diagonal().tolist()):
        if card == n or i in paired:
            continue
        p = sap[i]
        if p <= 0.0:
            continue
        if p < 1.0 and rng.random() >= p:
            continue
        mask = _row_mask(masks[i])
        missing = [s for s in range(n) if not mask >> s & 1]
        seg = missing[int(rng.integers(len(missing)))]
        masks[i, seg // 64] |= np.uint64(1 << seg % 64)
        state.downloads[i] += 1
        downloads.append((i, seg))
    state.slot += 1
    return SlotEvents(activations=tuple(pairs), downloads=tuple(downloads))


def step_deterministic(
    state: SlotState, inst: Instance, rng: np.random.Generator
) -> SlotEvents:
    """One slot of Limited Stable Pairing: matching, exchanges, downloads.

    Mutates `state` in place (sets, download counters, slot index) and
    returns the slot's events.  Uses the instance's own SAP and PEF, which
    must lie in [0, 1] on every node.
    """
    sap, pef = _run_values(inst, "lspa")
    masks = _mask_matrix(state.sets, inst.n)
    union, gt = _union_gt(masks)
    ev = _kernel_slot(state, masks, union, gt, rng, sap, pef)
    state.sets = _segment_sets(masks, inst.n)
    return ev


def _draw_block(rng: np.random.Generator, slots: int, m: int) -> np.ndarray:
    """Raw int32 picks for `slots` slots, uniform on 0..m-2: node i's target
    is its raw pick r, plus one when r >= i, so it never picks itself.

    The int32 draw yields the same values and leaves the generator in the
    same state as the int64 draw, and consecutive draws continue one stream.
    """
    return rng.integers(0, m - 1, size=(slots, m), dtype=np.int32)


def _apply_block(
    raw: np.ndarray, masks: np.ndarray, union: np.ndarray, gt: np.ndarray
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Apply the first slot of the raw picks `raw` in which some mutual pair
    satisfies GT.

    Every such pair (i, j), i < j, exchanges against the slot-start sets;
    `masks`, `union` and `gt` are updated in place.  Returns the slot's index
    in the block and its pairs, or (len(raw), ()) if no slot activates.
    Only the columns of live nodes (those with a GT edge) are read: a GT
    partner is always live.  Mutual picks are found first, through each
    target's own raw pick, and `gt` is read only for them.
    """
    slots, m = raw.shape
    live = np.flatnonzero(gt.any(axis=1)).astype(np.int32)
    t = raw[:, live]
    t += t >= live
    # slot s, live column a: the pick lands on j = t[s, a], and j's own pick
    # in that slot, raw[s, j], points back
    back = raw.ravel()[t + np.arange(0, slots * m, m)[:, None]]
    s, a = np.nonzero(back + (back >= t) == live)
    i, j = live[a], t[s, a]
    ok = gt[i, j]
    if not ok.any():
        return len(raw), ()
    s, i, j = s[ok], i[ok], j[ok]
    first = (s == s[0]) & (i < j)
    i, j = i[first], j[first]
    _merge(masks, i, j)
    _refresh(masks, union, gt, np.concatenate([i, j]))
    return int(s[0]), tuple(zip(i.tolist(), j.tolist()))


def _run_block(
    rng: np.random.Generator,
    slots: int,
    masks: np.ndarray,
    union: np.ndarray,
    gt: np.ndarray,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """`_apply_block` over `slots` slots, drawn in chunks of `_CHUNK` rows.

    Chunks after the first activating slot are drawn and discarded, so the
    stream is that of one (slots, m) draw and the whole block is never held.
    A lone node has no one to pick, so with m = 1 nothing is drawn.
    """
    if len(masks) < 2:
        return slots, ()
    hit = None
    for start in range(0, slots, _CHUNK):
        raw = _draw_block(rng, min(_CHUNK, slots - start), len(masks))
        if hit is None:
            b, pairs = _apply_block(raw, masks, union, gt)
            if pairs:
                hit = start + b, pairs
    return hit or (slots, ())


def step_randomized(
    state: SlotState, inst: Instance, rng: np.random.Generator
) -> SlotEvents:
    """One slot of the randomized algorithm; never downloads."""
    masks = _mask_matrix(state.sets, inst.n)
    _, pairs = _run_block(rng, 1, masks, *_union_gt(masks))
    for i, j in pairs:
        state.sets[i], state.sets[j] = exchange(state.sets[i], state.sets[j])
    state.slot += 1
    return SlotEvents(activations=pairs, downloads=())


def _run_values(inst: Instance, algorithm: str):
    """The per-node (sap, pef) that `algorithm` runs `inst` with: the
    instance's own values where FORCED has None, else the forced value on
    every node.  Own values must lie in [0, 1], on every node, whether or
    not the run reads them; the forced ones are constants in [0, 1]."""
    out = []
    for what, own, forced in zip(("sap", "pef"), (inst.sap, inst.pef), FORCED[algorithm]):
        if forced is not None:
            out.append((forced,) * inst.m)
            continue
        for i, v in enumerate(own):
            require_probability(v, f"node {i} {what}")
        out.append(own)
    return tuple(out)


def run_simulation(
    inst: Instance,
    algorithm: str,
    seed=None,
    max_slots: int | None = None,
) -> Trace:
    """Run one algorithm to quiescence (or to the slot cap).

    Deterministic algorithms terminate when the exchange graph is empty and
    every deficient node runs with SAP 0; the randomized algorithm
    terminates when the exchange graph is empty.  The SAP and PEF the
    algorithm runs with must lie in [0, 1] on every node.  `max_slots`
    defaults to 50*n*m and must be an integer >= 0; hitting it sets the
    truncated flag instead of raising.  Deterministic given (inst,
    algorithm, seed).
    """
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    sap, pef = _run_values(inst, algorithm)
    if max_slots is None:
        max_slots = 50 * inst.n * inst.m
    max_slots = require_int(max_slots, "max_slots", lo=0)
    rng = np.random.default_rng(seed)
    state = SlotState.initial(inst)
    masks = _mask_matrix(state.sets, inst.n)
    if algorithm == "randomized":
        events, r_end, truncated = _run_randomized(rng, max_slots, masks)
    else:
        events, r_end, truncated = _run_deterministic(state, rng, max_slots, masks, sap, pef)
    state.sets = _segment_sets(masks, inst.n)
    state.slot = r_end + 1
    return Trace(
        instance=inst,
        events=tuple(events),
        r_end=r_end,
        truncated=truncated,
        final=state,
    )


def _run_deterministic(state, rng, max_slots, masks, sap, pef):
    """Slots of `_kernel_slot` until quiescence or the cap; returns the
    events, r_end and the truncated flag.  Mutates `masks` and `state`.

    U and GT are built here, not by the caller: each slot with events
    replaces them, and a caller's reference would hold the first pair
    (m*m entries each, 1 byte per GT entry and 1, 2 or 4 per U entry) for
    the whole run.
    """
    n = state.sets[0].n
    union, gt = _union_gt(masks)
    events: list[tuple[int, SlotEvents]] = []
    while True:
        slot = state.slot
        if not gt.any() and all(
            card == n or p == 0.0 for card, p in zip(union.diagonal().tolist(), sap)
        ):
            return events, slot - 1, False
        if slot > max_slots:
            return events, max_slots, True
        ev = _kernel_slot(state, masks, union, gt, rng, sap, pef)
        if not ev.is_empty:
            events.append((slot, ev))
            union, gt = _union_gt(masks)


def _run_randomized(rng, max_slots, masks):
    """Blocked engine: slots are drawn in adaptively sized batches and only
    the first slot that activates an exchange is applied; the remaining
    drawn-but-unused slots are discarded and redrawn, which preserves the
    process law since slots are iid and change nothing unless they activate.
    Returns the events, r_end and the truncated flag; mutates `masks`.
    """
    union, gt = _union_gt(masks)
    events: list[tuple[int, SlotEvents]] = []
    r = 1
    block = _BLOCK_MIN
    while True:
        if not gt.any():
            return events, r - 1, False
        if r > max_slots:
            return events, max_slots, True
        size = min(block, max_slots - r + 1)
        b, pairs = _run_block(rng, size, masks, union, gt)
        if not pairs:
            r += size
            block = min(block * 2, _BLOCK_MAX)
            continue
        events.append((r + b, SlotEvents(activations=pairs, downloads=())))
        r += b + 1
        block = _BLOCK_MIN


def randomized_trajectory(inst: Instance, epochs: int, seed=None) -> list[float]:
    """Mean per-node cardinality at the start of slots 1..epochs under the
    randomized algorithm (the empirical counterpart of the recurrence
    predictor)."""
    epochs = require_int(epochs, "epochs", lo=1)
    rng = np.random.default_rng(seed)
    masks = _mask_matrix(list(inst.initial_sets), inst.n)
    union, gt = _union_gt(masks)
    out = []
    for _ in range(epochs):
        out.append(int(union.trace()) / inst.m)
        _run_block(rng, 1, masks, union, gt)
    return out
