"""Full simulation runs of the four pairing algorithms.

lspa: per-slot stable matching on PEF-truncated lists, SAP downloads for the
unmatched.  pepa: lspa with all SAP forced to 0.  lfs: pepa with all PEF
forced to 1.  randomized: mutual uniform random picks, no downloads.

Every run, stepper and trajectory holds the instance's Python-int masks.
lspa, pepa and lfs take every slot in one function, `_int_slot`, with the
stable pairs that `_pairs` finds from that slot's masks alone, in the run
loop and the stepper alike.  Only the finder depends on the slot: up to
`_INT_MAX_M` (20) nodes, the paper's (20, 50, 6) included, the pairs are
scanned from a sorted list of GT pairs as int keys, built in Python when
the nodes hold at most `_INT_MAX_MASKS` distinct masks (one union per pair
of them) and with numpy when they hold more.  Above, such as lfs at m =
200, the union sizes are built over the slot's distinct masks only; a slot
with no row cut whose nodes repeat their masks enough (`_LEVEL_MAX_SHARE`)
is matched one union size at a time on bitsets of its mask classes, and
any other by a runs scan of the (m, m) union sizes expanded from them.
All four give the same pairs.  The randomized algorithm reads its picks
off the 32-bit words of numpy's bounded draw, dropping and replacing the
words it rejects as numpy does, and tests GT on the ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

# preference_list and find_stable_matching define what the slot kernel
# computes; they stay importable from here for per-layer tracing.
from .graph import preference_list  # noqa: F401
from .matching import find_stable_matching  # noqa: F401
from .model import (
    Instance,
    InvalidParameterError,
    SegmentSet,
    SlotState,
    require_bytes,
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
# The randomized run loop draws its picks `_AHEAD` to `_CHUNK` rows at a
# time, so that busy-phase blocks of `_BLOCK_MIN` rows share one draw and
# one search for mutual picks, and a long block is never held whole; a
# chunk's search peaks at 20 bytes per pick (`engine_bytes`).
_AHEAD = 16 * _BLOCK_MIN
_CHUNK = 1024
# Words that `_draw_words` checks for rejection at a time.
_PIECE = 1 << 15
# `_PickStream.first_hit` when no node is live: the run is quiescent.
_QUIESCENT = object()
# The largest m at which lspa, pepa and lfs find a slot's stable pairs from
# sorted int keys (`_int_pairs` or `_key_pairs`) instead of from the union
# sizes of the slot's distinct masks (`_level_pairs` or `_matrix_pairs`);
# all give the same pairs.  Set from the crossover tables in README
# "Engine".
_INT_MAX_M = 20
# Up to `_INT_MAX_M` nodes, the most distinct masks at which a slot's int
# keys are built in Python (`_int_edges`, one union per pair of distinct
# masks) rather than with numpy (`_key_pairs`, one pass over every pair).
# Set from the table by distinct masks in README "Engine".
_INT_MAX_MASKS = 10
# Above `_INT_MAX_M` nodes, the largest share d/m of distinct masks among
# the nodes at which a slot with no row cut finds its pairs level by level
# on bitsets of its mask classes (`_level_pairs`) rather than on the mask
# matrix (`_matrix_pairs`).  Set from the table by d/m in README "Engine".
_LEVEL_MAX_SHARE = 0.4


def engine_bytes(m: int, n: int, algorithm: str) -> int:
    """The most bytes a run of `algorithm` over m nodes and n segments may
    hold in arrays; lspa, pepa and lfs share one estimate.

    `run_simulation` checks it before the first slot and
    `step_deterministic` before each.  Every search of the mask matrix,
    where `_pairs` finds the stable pairs of lspa, pepa and lfs above m =
    `_INT_MAX_M` (`_matrix_pairs`) and in many-mask slots below
    (`_key_pairs`), builds (m, m) arrays: U, GT and, when a row is cut, the
    int64 keys of `_listed` and their sorted copy.  Under tracemalloc a run
    peaked at 14.6 to 19.2 bytes per m^2 (m = 1,000, W = 1 to 5 words, with
    and without cut rows) and at 21.9 with 4-byte U (m = 300, W = 1,100):
    never more than 18 plus the width of U.  `_matrix_pairs` builds U and
    GT over the d distinct masks and expands them to the nodes, dropping
    the (d, d) matrices as it goes: at d = m - 1, m/2 and m/10 its peak
    stayed within 0.05 bytes per m^2 of that at d = m (m = 300 and 1,000,
    W = 1 to 32).  The level finder (`_level_pairs`), which the rule takes
    only at d <= `_LEVEL_MAX_SHARE` * m, holds (d, d) arrays, the GT
    pairs of classes as two lists of Python ints (about 40 bytes per pair)
    and bitsets of m bits: at d = 0.4 m it peaked at 6.2 to 6.5 bytes per
    m^2 (m = 1,000, W = 1 to 5) and 4.7 at m = 300 with W = 32.  The
    estimate takes 20 plus the width of U per m^2, 16 bytes per mask word
    (the matrix and the bytes it is built from) and 8 KiB for what one
    search holds whatever its size: array headers, the key list and small
    Python objects.  At m <= `_INT_MAX_M` that is most of the peak: one
    search of any of the four pair finders, at m = 2 to 20, W = 1 to 200,
    with and without cut rows or repeated masks, held at most 6.2 KB more
    than the rest of the estimate.  A randomized run builds no (m, m)
    array: its estimate is 16 bytes per mask word and 20 bytes per
    pick of one `_CHUNK`-row chunk (its uint32 words, decoded targets and
    back picks, and an int64 index), the tracemalloc peak of one
    `_mutual_picks` with every node live at m = 150, 300 and 1,000 (20.01
    bytes per pick or less): `_decode`, and `_draw_words` with its
    rejection check and replacement reads, hold less.  At the default
    budget this limits a randomized run to m <= 52,347.
    """
    words = max(1, -(-n // 64))
    need = 16 * words * m
    if algorithm == "randomized":
        return need + 20 * _CHUNK * m
    return need + 8192 + (20 + np.min_scalar_type(64 * words).itemsize) * m * m


def require_engine_fits(m: int, n: int, algorithm: str) -> None:
    """Raise InvalidParameterError if `engine_bytes(m, n, algorithm)` passes
    the memory budget, `model.MAX_BYTES`."""
    require_bytes(engine_bytes(m, n, algorithm), f"the arrays of a run at m={m}, n={n}")


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


def _mask_matrix(masks: Sequence[int], n: int) -> np.ndarray:
    """The Python-int masks of node sets over n segments as a read-only
    (m, W) uint64 matrix, W = ceil(n / 64); segment s is bit s % 64 of word
    s // 64.  Only the pair finders build it: `_matrix_pairs` and
    `_level_pairs` over a slot's distinct masks, `_key_pairs` over its
    nodes; `run_simulation` and `step_deterministic` check the estimate of
    lspa, pepa and lfs before it is built."""
    words = max(1, -(-n // 64))
    data = b"".join(map(int.to_bytes, masks, repeat(8 * words), repeat("little")))
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), words)


def _union_sizes(masks: np.ndarray) -> np.ndarray:
    """U[i, j] = |O_i u O_j| for every pair of nodes.

    U has the narrowest unsigned dtype that holds 64*W for W words per
    mask: uint8 up to W = 3 (n <= 192), uint16 up to W = 1023, uint32
    above.  Callers that subtract from or multiply U cast it first.  The
    popcounts are summed one word at a time, so temporaries stay O(m^2).
    """
    words = masks.shape[1]
    # bitwise_count gives uint8, so the cast copies only from W = 4 on
    union = np.bitwise_count(masks[:, 0, None] | masks[None, :, 0]).astype(
        np.min_scalar_type(64 * words), copy=False
    )
    for w in range(1, words):
        union += np.bitwise_count(masks[:, w, None] | masks[None, :, w])
    return union


def _union_gt(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union sizes U[i, j] = |O_i u O_j| (so U[i, i] = |O_i|) and the GT
    adjacency U[i, j] > max(|O_i|, |O_j|) for every pair."""
    union = _union_sizes(masks)
    card = union.diagonal()
    return union, (union > card[:, None]) & (union > card[None, :])


def _listed(union: np.ndarray, gt: np.ndarray, pef: tuple[float, ...]) -> np.ndarray:
    """The mutually listed pairs of the rule `_stable_pairs` states, as an
    (m, m) boolean matrix: `gt` itself when no row is cut.

    Row i ranks its GT neighbours by descending union size, ties by
    ascending id, and keeps the first max(1, floor(pef[i] * deg)); the key
    -U[i, j]*m + j encodes that order in one integer.  Every pef[i] must lie
    in [0, 1] (`_run_values` checks it); with none below 1 nothing is cut,
    and the degrees are not counted.
    """
    if min(pef) >= 1.0:
        return gt
    m = len(pef)
    deg = gt.sum(axis=1)
    kept = np.maximum(1, (np.array(pef) * deg).astype(np.int64))  # pef*deg >= 0: floor
    if not np.count_nonzero(kept < deg):
        return gt
    # A cut row keeps its entries up to its kept-th smallest key.  GT keys
    # are negative and the others 0, so GT entries sort first; a row with no
    # GT partner still keeps 1 entry, a 0, which the AND with GT drops.  U is
    # unsigned and may be 8 bits wide: the keys need int64.
    ids = np.arange(m)
    key = np.where(gt, ids - union.astype(np.int64) * m, 0)
    worst = np.sort(key, axis=1)[ids, kept - 1]
    listed = gt & (key <= worst[:, None])
    return listed & listed.T


def _stable_pairs(
    union: np.ndarray, gt: np.ndarray, pef: tuple[float, ...]
) -> list[tuple[int, int]]:
    """The pairs of `find_stable_matching` over every node's PEF-truncated
    `preference_list`, computed from the union-size matrix, sorted.

    Both ends of a pair rank it by the same U (`_listed` cuts the lists),
    and at equal U node i's order j < k agrees with the order of the pairs
    by (min id, max id), so every list follows one global order of the
    pairs, (-U, min id, max id).  Then the stable matching is unique and
    greedy (stable roommates with globally ranked pairs; Abraham, Levavi,
    Manlove & O'Malley, WINE 2007): scan the mutually listed pairs in that
    order and keep each whose ends are both free.  A kept pair is the best
    one left to both its ends, so any matching without it, but with the
    pairs kept before it, is blocked by it; by induction every stable
    matching holds exactly the kept pairs.
    """
    m = len(pef)
    ids = np.arange(m)
    # flat indices i*m + j of the mutually listed pairs, i < j, in (i, j) order
    k = np.flatnonzero(_listed(union, gt, pef) & (ids[:, None] < ids))
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


def _mask_classes(masks: list[int]) -> tuple[list[int], list[int]]:
    """The distinct masks of `masks` in order of first appearance, and each
    node's class: the index of its mask among them.  With no mask repeated,
    node i is class i."""
    index: dict[int, int] = {}
    cls = [index.setdefault(a, len(index)) for a in masks]
    return cls, list(index)


def _matrix_pairs(
    cls: list[int], distinct: list[int], n: int, pef: tuple[float, ...]
) -> list[tuple[int, int]]:
    """The stable pairs of the nodes whose masks over n segments are
    `distinct[cls[i]]` (`_mask_classes`), found on the mask matrix:
    `_union_gt` of the d distinct masks, expanded to the m nodes by two
    `take`s each (skipped when d = m), then `_stable_pairs`; skipped when
    no pair satisfies GT.  The d x d matrices are dropped as the m x m ones
    replace them, so they add nothing to the peak of `_stable_pairs`."""
    union, gt = _union_gt(_mask_matrix(distinct, n))
    if not gt.any():
        return []
    if len(distinct) < len(cls):
        at = np.array(cls)
        union = union.take(at, 0).take(at, 1)
        gt = gt.take(at, 0).take(at, 1)
    return _stable_pairs(union, gt, pef)


def _level_pairs(cls: list[int], distinct: list[int], n: int) -> list[tuple[int, int]]:
    """The stable pairs of the nodes whose masks over n segments are
    `distinct[cls[i]]` (`_mask_classes`) when no row is cut (every PEF at
    least 1), found one union size at a time on node bitsets (Python ints)
    of the classes, with `_union_gt` over the d distinct masks only.  It
    holds O(d^2) arrays and, at a time, d + 2 bitsets of m bits and one
    more per class with a partner at the level in hand.

    With no row cut every GT pair is listed, and `_stable_pairs` keeps
    each pair whose ends are both free in the order (-U, i, j).  Nodes of
    one class share their unions, so the pairs of one U are those across
    the GT class pairs at that U: the levels are the distinct U of the GT
    class pairs, at most d(d-1)/2 of them whatever n, taken by descending
    U.  Within a level the order (i, j) visits the free nodes whose class
    has a partner at that U in ascending id, and each takes the lowest free
    node above it in the OR of its partner classes' bitsets, if there is
    one: the first pair of its run.  A class with no free node left drops
    out of every later level.
    """
    union, gt = _union_gt(_mask_matrix(distinct, n))
    x, y = np.nonzero(gt)
    if not len(x):
        return []
    upper = x < y  # each GT class pair once, as x < y
    x, y = x[upper], y[upper]
    u = union[x, y]
    top = int(u.max())
    order = np.argsort((top - u).astype(np.min_scalar_type(top), copy=False), kind="stable")
    u = u[order]
    cuts = (np.flatnonzero(u[1:] != u[:-1]) + 1).tolist()
    x, y = x[order].tolist(), y[order].tolist()
    bits = [0] * len(distinct)
    for i, c in enumerate(cls):
        bits[c] |= 1 << i
    left = [b.bit_count() for b in bits]  # free nodes per class
    free = (1 << len(cls)) - 1
    pairs = []
    for s, e in zip([0] + cuts, cuts + [len(x)]):
        partners: dict[int, int] = {}
        for a, c in zip(x[s:e], y[s:e]):
            if left[a] and left[c]:
                partners[a] = partners.get(a, 0) | bits[c] & free
                partners[c] = partners.get(c, 0) | bits[a] & free
        heads = 0
        for a in partners:
            heads |= bits[a]
        heads &= free
        while heads:
            low = heads & -heads
            i = low.bit_length() - 1
            # the partners above i: -(low << 1) has every bit from i + 1 up
            above = partners[cls[i]] & free & -(low << 1)
            if above:
                high = above & -above
                j = high.bit_length() - 1
                free ^= low | high
                pairs.append((i, j))
                left[cls[i]] -= 1
                left[cls[j]] -= 1
            heads = (heads ^ low) & free
    pairs.sort()
    return pairs


def _int_edges(masks: list[int], n: int) -> list[int]:
    """The GT pairs of the Python-int masks `masks` over n segments, as
    sorted int keys (n - U) << 2b | i << b | j, i < j, b = m.bit_length():
    ascending keys go by descending U, then i, then j, the order (-U, i, j)
    of `_stable_pairs`.  A pair satisfies GT when its union is neither
    end's set, so nodes with equal masks never pair and share one union
    with each partner: the nodes are grouped by mask, and one union is
    taken per pair of classes."""
    m = len(masks)
    b = m.bit_length()
    classes = {}
    for i, a in enumerate(masks):
        classes.setdefault(a, []).append(i)
    items = list(classes.items())
    out = []
    for x, (a, ia) in enumerate(items):
        for c, ic in items[x + 1:]:
            ac = a | c
            if ac != a and ac != c:
                top = n - ac.bit_count() << 2 * b
                for i in ia:
                    for j in ic:
                        out.append(top | i << b | j if i < j else top | j << b | i)
    out.sort()
    return out


def _free_pairs(edges: list[int], m: int) -> list[tuple[int, int]]:
    """The greedy matching of m nodes over the sorted pair keys `edges`,
    laid out as `_int_edges` lays them out, with no list cut: each pair in
    turn whose ends are both free, sorted."""
    b = m.bit_length()
    low = (1 << b) - 1
    free = [True] * m
    pairs = []
    for e in edges:
        i = e >> b & low
        j = e & low
        if free[i] and free[j]:
            free[i] = free[j] = False
            pairs.append((i, j))
    pairs.sort()
    return pairs


def _int_pairs(edges: list[int], pef: tuple[float, ...]) -> list[tuple[int, int]]:
    """`_stable_pairs` from the sorted GT pairs of `_int_edges`: the same
    rule, stated there.  Node i's entries, in the global order (-U, i, j),
    come in its own list order (-U, other end), so its first
    max(1, floor(pef[i] * deg)) pairs in that order are the ones it lists,
    and one scan both cuts the lists and takes the greedy matching.  With
    no PEF below 1 nothing is cut, and the scan tests only free flags
    (`_free_pairs`)."""
    if not edges:
        return []
    m = len(pef)
    if min(pef) >= 1.0:
        return _free_pairs(edges, m)
    b = m.bit_length()
    low = (1 << b) - 1
    deg = [0] * m
    for e in edges:
        deg[e >> b & low] += 1
        deg[e & low] += 1
    kept = [max(1, int(p * d)) for p, d in zip(pef, deg)]
    seen = [0] * m
    pairs = []
    for e in edges:
        i = e >> b & low
        j = e & low
        if seen[i] < kept[i] and seen[j] < kept[j]:
            pairs.append((i, j))
            kept[i] = kept[j] = 0  # a paired node takes no other pair
        seen[i] += 1
        seen[j] += 1
    pairs.sort()
    return pairs


@lru_cache(maxsize=_INT_MAX_M)
def _triangle(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of m nodes, in (i, j) order, as two read-only int64
    arrays: their flat positions i*m + j in an (m, m) matrix and their key
    bits i << b | j, b = m.bit_length().  They depend on m alone, so each
    is built once per m."""
    i, j = np.triu_indices(m, 1)
    out = (i * m + j, i << m.bit_length() | j)
    for a in out:
        a.setflags(write=False)
    return out


def _key_pairs(masks: list[int], n: int, pef: tuple[float, ...]) -> list[tuple[int, int]]:
    """The stable pairs of the Python-int masks `masks` over n segments,
    from the keys (n - U) << 2b | i << b | j of `_int_edges`, built with
    numpy: the mutually listed pairs i < j of `_listed`, over `_union_gt`
    of the mask matrix, sorted in one `np.sort` and scanned by
    `_free_pairs`.  `_listed` has already cut the lists, so the scan only
    tests free flags.  Its cost hardly depends on how many distinct masks
    the nodes hold, where `_int_edges` takes one union per pair of them."""
    m = len(masks)
    union, gt = _union_gt(_mask_matrix(masks, n))
    flat, ij = _triangle(m)
    at = _listed(union, gt, pef).ravel()[flat]
    if not at.any():
        return []
    keys = (n - union.ravel()[flat[at]].astype(np.int64)) << 2 * m.bit_length() | ij[at]
    keys.sort()
    return _free_pairs(keys.tolist(), m)


def _pairs(masks: list[int], n: int, pef: tuple[float, ...]) -> list[tuple[int, int]]:
    """The stable pairs of the Python-int masks `masks` over n segments,
    from the slot's GT graph alone.  Up to `_INT_MAX_M` nodes they come
    from int keys: built in Python (`_int_pairs`) while the nodes hold at
    most `_INT_MAX_MASKS` distinct masks, with numpy (`_key_pairs`) when
    they hold more.  Above `_INT_MAX_M` nodes the nodes are grouped by mask
    (`_mask_classes`), and both finders build `_union_gt` over the d
    distinct masks only.  A slot with no PEF below 1 and d <=
    `_LEVEL_MAX_SHARE` * m takes the level bitset greedy (`_level_pairs`);
    every other slot takes the mask matrix (`_matrix_pairs`).  All four
    give the same pairs."""
    m = len(masks)
    if m <= _INT_MAX_M:
        if m > _INT_MAX_MASKS and len(set(masks)) > _INT_MAX_MASKS:
            return _key_pairs(masks, n, pef)
        return _int_pairs(_int_edges(masks, n), pef)
    cls, distinct = _mask_classes(masks)
    if len(distinct) <= _LEVEL_MAX_SHARE * m and min(pef) >= 1.0:
        return _level_pairs(cls, distinct, n)
    return _matrix_pairs(cls, distinct, n, pef)


def _nth_bit(x: int, r: int, n: int) -> int:
    """The position of the r-th lowest set bit (r from 0) of x < 2**n, by
    halving: each step counts the bits of the lower half of what is left,
    so there are ceil(log2 n) steps whatever the number of words."""
    pos = 0
    width = 1 << (n - 1).bit_length()
    while width > 1:
        width >>= 1
        low = x & ((1 << width) - 1)
        c = low.bit_count()
        if r < c:
            x = low
        else:
            r -= c
            x >>= width
            pos += width
    return pos


def _int_slot(
    masks: list[int],
    pairs: list[tuple[int, int]],
    rng: np.random.Generator,
    sap: tuple[float, ...],
    n: int,
    downloads: list[int],
) -> SlotEvents:
    """One slot of Limited Stable Pairing on the Python-int masks of sets
    over n segments, with `pairs` the slot's stable pairs.

    The pairs exchange against slot-start sets (pairs are disjoint, so the
    order does not matter).  Then each unmatched deficient node, in
    ascending id, downloads one uniformly random missing segment with
    probability sap[i]: the `rng.integers(n - |O_i|)`-th missing segment in
    ascending order.  The Bernoulli draw consumes the rng stream only for
    0 < sap[i] < 1.  Mutates `masks` and the per-node counts `downloads`.
    """
    paired = set()
    for a, b in pairs:
        masks[a] = masks[b] = masks[a] | masks[b]
        paired.update((a, b))
    full = (1 << n) - 1
    got = []
    for i, p in enumerate(sap):
        mask = masks[i]
        if p <= 0.0 or mask == full or i in paired:
            continue
        if p < 1.0 and rng.random() >= p:
            continue
        seg = _nth_bit(full ^ mask, int(rng.integers(n - mask.bit_count())), n)
        masks[i] = mask | 1 << seg
        downloads[i] += 1
        got.append((i, seg))
    return SlotEvents(activations=tuple(pairs), downloads=tuple(got))


def step_deterministic(
    state: SlotState, inst: Instance, rng: np.random.Generator
) -> SlotEvents:
    """One slot of Limited Stable Pairing: matching, exchanges, downloads.

    Mutates `state` in place (sets, download counters, slot index) and
    returns the slot's events.  Uses the instance's own SAP and PEF, which
    must lie in [0, 1] on every node.  Finds its pairs as `run_simulation`
    does (`_pairs`), and a slot whose arrays may pass the memory budget
    (`require_engine_fits`) is refused before any of them exists.
    """
    sap, pef = _run_values(inst, "lspa")
    require_engine_fits(inst.m, inst.n, "lspa")
    masks = [s.mask for s in state.sets]
    ev = _int_slot(masks, _pairs(masks, inst.n, pef), rng, sap, inst.n, state.downloads)
    state.sets = [SegmentSet(inst.n, mask) for mask in masks]
    state.slot += 1
    return ev


def _words(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next `count` words of numpy's `next_uint32` on `rng`, as a
    uint32 array, with the generator left as numpy leaves it.  On PCG64
    they are read off `random_raw`, the low half of each output first,
    after any half word left buffered (`has_uint32`, `uinteger`); on any
    other bit generator they come from `rng.integers(0, 2**32,
    dtype=np.uint32)`, which at that range returns `next_uint32` as is."""
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        return rng.integers(0, 2**32, count, dtype=np.uint32)
    state = bits.state
    half = state["has_uint32"]
    raw = bits.random_raw((count - half + 1) // 2).astype("<u8", copy=False).view("<u4")
    if half:
        words = np.concatenate((np.array([state["uinteger"]], np.uint32), raw))[:count]
    else:
        words = raw[:count]
    # the high half of the last raw word is kept as `uinteger`, whether or
    # not it was used
    state = bits.state
    state["has_uint32"] = half + len(raw) - count
    if len(raw):
        state["uinteger"] = int(raw[-1])
    bits.state = state
    return words


def _draw_words(rng: np.random.Generator, slots: int, m: int) -> np.ndarray:
    """The 32-bit words of numpy's int32 draw `rng.integers(0, m - 1,
    size=(slots, m), dtype=np.int32)`, as a (slots, m) uint32 array that
    `_decode` turns into its picks, with the generator left where that draw
    leaves it.  Node i's target is its pick r, plus one when r >= i, so it
    never picks itself.

    Numpy's bounded draw is Lemire's multiply-shift over `next_uint32`
    (`_words`): a word w gives the pick w*(m-1) >> 32, unless the low 32
    bits of w*(m-1) lie below 2**32 mod (m-1), when numpy rejects w and
    reads the next word.  A word is rejected on its own value, so the words
    are read `slots * m` at a time and checked a `_PIECE` at a time; each
    rejected word is dropped by moving the words after it left, in place,
    and as many new words are read at the end and checked in turn, until
    none is rejected.  With m = 2 every pick is 0 and numpy reads nothing.
    The int32 draw gives the int64 draw's values and state, and
    consecutive draws continue one stream, so the rows of a stream may be
    drawn in chunks of any size.
    """
    if m == 2:
        return np.zeros((slots, m), np.uint32)
    count = slots * m
    words = _words(rng, count)
    below = 2**32 % (m - 1)
    if below:
        # The low 32 bits of w*(m-1) are their uint32 product, formed a
        # piece at a time: a product of every word held at once raises the
        # peak RSS of rand-m200 by 0.3 MB.  words[:kept] are accepted and
        # words[at:] not yet checked; they part at the first rejection.
        low = np.empty(min(count, _PIECE), np.uint32)
        kept = at = 0
        while kept < count:
            if at == count:  # the words read so far are checked: read more
                words[kept:] = _words(rng, count - kept)
                at = kept
            end = min(at + _PIECE, count)
            piece = words[at:end]
            product = np.multiply(piece, np.uint32(m - 1), out=low[: end - at])
            rejected = product.min() < below
            if rejected:
                piece = piece[product >= below]
            if rejected or kept < at:
                words[kept : kept + len(piece)] = piece
            kept += len(piece)
            at = end
    return words.reshape(slots, m)


def _decode(words: np.ndarray, m: int) -> np.ndarray:
    """The int32 picks of the uint32 words `words` drawn for m nodes,
    floor(w * (m-1) / 2**32), written over `words`.

    The product is formed in float64, exact while w * (m-1) < 2**53, that
    is for every m <= 2**21, far above the randomized memory limit (m <=
    52,347 at the default budget).  It holds one float64 copy of the
    words, made by `astype` and scaled in place, so that no cast buffer of
    a mixed-type multiply adds to the peak of `_mutual_picks`
    (`engine_bytes`).
    """
    picks = words.view(np.int32)
    scaled = words.astype(np.float64)
    scaled *= (m - 1) / 2**32
    np.copyto(picks, scaled, casting="unsafe")
    return picks


def _live(masks: list[int]) -> np.ndarray:
    """Which nodes of the Python-int masks `masks` have a GT partner, as a
    boolean array.  A node has none when its set is comparable with every
    other: with the distinct sets in ascending order (a proper subset is
    the smaller int), when it holds all those before it and lies in all
    those after it."""
    distinct = sorted(set(masks))
    after = [-1] * (len(distinct) + 1)  # after[k]: intersection of distinct[k:]
    for k in range(len(distinct) - 1, -1, -1):
        after[k] = after[k + 1] & distinct[k]
    dead = set()
    union = 0
    for k, x in enumerate(distinct):
        union |= x
        if union == x and after[k + 1] & x == x:
            dead.add(x)
    return np.array([x not in dead for x in masks], dtype=bool)


def _mutual_picks(
    words: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every mutual pick in the rows of uint32 words `words`
    (`_draw_words`) between two nodes of the boolean mask `live`: the rows
    s and nodes i < j where i picks j and j picks i, ordered by s, then i.
    Reads no GT state.

    Only the words of live columns are decoded, and each target's own word
    is gathered and decoded to test whether it points back.
    """
    slots, m = words.shape
    cols = np.flatnonzero(live).astype(np.int32)
    t = _decode(words[:, cols], m)
    t += t >= cols
    # row s, live column a: the pick lands on j = t[s, a], and j's own pick
    # in that row, decoded from words[s, j], points back
    back = _decode(words.ravel()[t + np.arange(0, slots * m, m)[:, None]], m)
    # flatnonzero and divmod: 2-D nonzero costs about three times as much
    s, a = np.divmod(np.flatnonzero(back + (back >= t) == cols), len(cols))
    i, j = cols[a], t[s, a]
    keep = (i < j) & live[j]
    return s[keep], i[keep], j[keep]


def _exchange(masks: list[int], i, j) -> tuple[tuple[int, int], ...]:
    """Exchange every mutual pick (i[p], j[p]) of one slot whose pair
    satisfies GT, against the slot-start sets (the picks of one slot are
    disjoint pairs); the Python-int masks `masks` are updated in place.
    Returns the pairs that exchanged, in the order given."""
    out = []
    for a, b in zip(i, j):
        x, y = masks[a], masks[b]
        u = x | y
        if u != x and u != y:
            masks[a] = masks[b] = u
            out.append((a, b))
    return tuple(out)


def _random_slot(rng: np.random.Generator, masks: list[int]) -> tuple[tuple[int, int], ...]:
    """One slot of the randomized algorithm on its own row of picks.

    The row is numpy's draw `rng.integers(0, m - 1, size=m)`, the stream of
    `_draw_words` (the int64 draw gives the int32 draw's values and state).
    Node i's target t[i] is its pick plus one when the pick is >= i, and the
    mutual picks are the nodes i < t[i] with t[t[i]] = i, in ascending i,
    as `_mutual_picks` orders them.  A lone node has no one to pick, so
    with m = 1 nothing is drawn.
    """
    m = len(masks)
    if m < 2:
        return ()
    ids = np.arange(m)
    t = rng.integers(0, m - 1, size=m)
    t += t >= ids
    i = np.flatnonzero((ids < t) & (t[t] == ids))
    return _exchange(masks, i.tolist(), t[i].tolist())


def step_randomized(
    state: SlotState, inst: Instance, rng: np.random.Generator
) -> SlotEvents:
    """One slot of the randomized algorithm; never downloads.  Mutates
    `state` in place (sets and slot index) and returns the slot's events."""
    masks = [s.mask for s in state.sets]
    pairs = _random_slot(rng, masks)
    state.sets = [SegmentSet(inst.n, mask) for mask in masks]
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
    algorithm, seed).  A `numpy.random.Generator` passed as `seed` is drawn
    from directly; the state the run leaves it in is deterministic, given
    the instance, the cap and the generator's state before, but not
    otherwise specified.  A run whose arrays may pass the memory budget
    (`require_engine_fits`) is refused before any of them exists.

    Every algorithm runs on the instance's Python-int masks.  lspa, pepa
    and lfs find each slot's stable pairs from that slot's masks alone
    (`_pairs`, as `step_deterministic` does): from int keys while m <=
    `_INT_MAX_M` (20), built in Python or with numpy by the number of
    distinct masks; above, from the union sizes of the distinct masks,
    level by level on class bitsets when no row is cut and at most
    `_LEVEL_MAX_SHARE` (0.4) of the nodes' masks are distinct, and on the
    node matrix expanded from them otherwise.  All give the same pairs.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    sap, pef = _run_values(inst, algorithm)
    if max_slots is None:
        max_slots = 50 * inst.n * inst.m
    max_slots = require_int(max_slots, "max_slots", lo=0)
    require_engine_fits(inst.m, inst.n, algorithm)
    rng = np.random.default_rng(seed)
    downloads = [0] * inst.m
    masks = [s.mask for s in inst.initial_sets]
    if algorithm == "randomized":
        events, r_end, truncated = _run_randomized(rng, max_slots, masks)
    else:
        events, r_end, truncated = _run_deterministic(
            rng, max_slots, masks, sap, pef, inst.n, downloads
        )
    sets = [SegmentSet(inst.n, mask) for mask in masks]
    return Trace(
        instance=inst,
        events=tuple(events),
        r_end=r_end,
        truncated=truncated,
        final=SlotState(r_end + 1, sets, downloads),
    )


def _run_deterministic(rng, max_slots, masks, sap, pef, n, downloads):
    """Slots of `_int_slot` on the Python-int masks `masks`, numbered from
    1, until quiescence or the cap; returns the events, r_end and the
    truncated flag.  Mutates `masks` and the per-node counts `downloads`.

    Each slot's pairs come from `_pairs`, on that slot's masks alone.  The
    run is quiescent when no pair is found and every node is full or has
    SAP 0: a state with a GT pair always has a stable pair, since the
    globally first pair heads the lists of both its ends.  A slot without
    events leaves the masks as they were, so the pairs and the test are
    only redone after a slot with events.
    """
    full = (1 << n) - 1
    events: list[tuple[int, SlotEvents]] = []
    slot = 1
    changed = True
    while True:
        if changed:
            pairs = _pairs(masks, n, pef)
            if not pairs and all(mask == full or p == 0.0 for mask, p in zip(masks, sap)):
                return events, slot - 1, False
        if slot > max_slots:
            return events, max_slots, True
        ev = _int_slot(masks, pairs, rng, sap, n, downloads)
        changed = not ev.is_empty
        if changed:
            events.append((slot, ev))
        slot += 1


class _PickStream:
    """The pick rows of one randomized run, numbered from 0 in stream order
    and drawn ahead as words (`_draw_words`) in chunks of `_AHEAD` to
    `_CHUNK` rows.

    The generator only moves forward.  It stands at row `end`, the end of
    the chunk held; rows that the blocks skip past it are drawn and
    discarded before the next chunk (checked, never decoded), so every row
    keeps the number it has in one draw of the whole stream.

    A chunk is kept only as its mutual picks between the nodes that are live
    (`_live`: have a GT partner) when it is drawn, and that serves the whole
    chunk: the live set only shrinks.  A node with no GT partner holds a set
    comparable with every other set, and an exchange between a and b leaves
    it comparable with a u b, so it never gains a partner.  Which pairs
    satisfy GT is read only when a block is searched.  No mask changes
    between exchanges, so the live mask `live` is found when it is first
    asked for after one (`quiescent`) and kept until the run loop clears it
    (sets it to None) after the next.  With no node live the run is
    quiescent, and nothing more is drawn.
    """

    def __init__(self, rng: np.random.Generator, m: int):
        self.rng, self.m = rng, m
        self.end = 0
        self.rows, self.i, self.j = [], [], []
        self.live = None

    def quiescent(self, masks: list[int]) -> bool:
        """Whether no node of the Python-int masks `masks` is live, from the
        live mask held, or found here if none is."""
        if self.live is None:
            self.live = _live(masks)
        return not self.live.any()

    def first_hit(self, start: int, stop: int, masks: list[int]):
        """The first row in [start, stop) holding a mutual pick whose pair
        satisfies GT under the Python-int masks `masks`, with the (i, j)
        lists of every mutual pick in that row; None if there is no such
        row; `_QUIESCENT` if a chunk is due and no node is live.  Calls move
        forward: `start` may not lie before the previous call's `stop`."""
        while start < stop:
            if start >= self.end and not self._draw(start, stop, masks):
                return _QUIESCENT
            rows, end = self.rows, min(stop, self.end)
            c = bisect_left(rows, start)
            while c < len(rows) and rows[c] < end:
                x, y = masks[self.i[c]], masks[self.j[c]]
                u = x | y
                if u != x and u != y:
                    e = bisect_right(rows, rows[c], c)
                    return rows[c], self.i[c:e], self.j[c:e]
                c += 1
            start = end
        return None

    def _draw(self, start: int, stop: int, masks: list[int]) -> bool:
        """Draw and discard rows end..start-1, then draw the chunk that
        starts at row `start`; False, with nothing drawn, if no node of the
        Python-int masks `masks` is live."""
        if self.quiescent(masks):
            return False
        for at in range(self.end, start, _CHUNK):
            _draw_words(self.rng, min(_CHUNK, start - at), self.m)
        size = min(_CHUNK, max(_AHEAD, stop - start))
        s, i, j = _mutual_picks(_draw_words(self.rng, size, self.m), self.live)
        self.end = start + size
        self.rows, self.i, self.j = (s + start).tolist(), i.tolist(), j.tolist()
        return True


def _run_randomized(rng, max_slots, masks):
    """Blocked engine: slots are searched in blocks of adaptive size, and
    only the first slot that activates an exchange is applied; the block's
    later slots are discarded.  That preserves the process law, since slots
    are iid and change nothing unless they activate.  A block covers the
    next `size` rows of the pick stream whatever it finds, so each slot
    searched reads the row that one draw of every block in turn gives it.
    Nothing is drawn once the run ends: the generator is left at the end of
    the last chunk drawn, at most `_CHUNK` rows past the last row searched.
    Returns the events, r_end and the truncated flag; mutates the Python-int
    masks `masks`.

    The run is quiescent when no node is live, with r_end the slot of the
    last exchange, or 0.  That is decided where the live mask is needed
    anyway, when a chunk is due, and once at the cap, so that a run
    quiescent there is not truncated: never once per exchange.
    """
    picks = _PickStream(rng, len(masks))
    events: list[tuple[int, SlotEvents]] = []
    last = 0  # the slot of the last exchange
    r = 1  # the block's first slot
    pos = 0  # the block's first row of the pick stream
    block = _BLOCK_MIN
    while r <= max_slots:
        size = min(block, max_slots - r + 1)
        hit = picks.first_hit(pos, pos + size, masks)
        if hit is _QUIESCENT:
            return events, last, False
        if hit is None:
            r += size
            block = min(block * 2, _BLOCK_MAX)
        else:
            row, i, j = hit
            last = r + row - pos
            pairs = _exchange(masks, i, j)
            events.append((last, SlotEvents(activations=pairs, downloads=())))
            r = last + 1
            block = _BLOCK_MIN
            picks.live = None
        pos += size
    if picks.quiescent(masks):
        return events, last, False
    return events, max_slots, True


def randomized_trajectory(inst: Instance, epochs: int, seed=None) -> list[float]:
    """Mean per-node cardinality at the start of slots 1..epochs under the
    randomized algorithm (the empirical counterpart of the recurrence
    predictor)."""
    epochs = require_int(epochs, "epochs", lo=1)
    rng = np.random.default_rng(seed)
    masks = [s.mask for s in inst.initial_sets]
    out = []
    for _ in range(epochs):
        out.append(sum(map(int.bit_count, masks)) / inst.m)
        _random_slot(rng, masks)
    return out
