"""Limiting-phase maxima engine: interleaved slab searches over a bucket queue.

All points walk their per-position search trees toward their leaf slab, but
the scheduler always advances a point in the rightmost unresolved slab.  The
leftmost maximum found so far dominates-checks every scheduled point, so
points doomed to be dominated usually die after O(1) steps instead of paying
for a full location.  Discovered maxima accumulate left to right, giving the
same certificate shape as the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Certificate, InputSet, brute_force_maxima

if TYPE_CHECKING:
    from .learning import FrequencyTable, TrainedModel


class BucketQueue:
    """Max-priority queue over a bounded integer key range with lazy scanning.

    Keys may only decrease after insertion (checked), which lets a single
    downward cursor amortize every find_max over the whole run: the cursor
    moves at most num_keys steps in total.  Elements with equal keys come out
    in FIFO order; an element whose key is lowered re-enters at the back of
    its new bucket.  find_max on an empty queue returns None.
    """

    __slots__ = ("_buckets", "_keys", "_cursor", "scan_steps")

    def __init__(self, num_keys: int):
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        self._buckets: list[dict] = [{} for _ in range(num_keys)]
        self._keys: dict = {}
        self._cursor = -1
        self.scan_steps = 0  # cumulative downward cursor movement

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, elem) -> bool:
        return elem in self._keys

    def key_of(self, elem) -> int:
        return self._keys[elem]

    def insert(self, elem, key: int) -> None:
        if elem in self._keys:
            raise ValueError(f"element {elem!r} is already queued")
        if not 0 <= key < len(self._buckets):
            raise ValueError(f"key {key} out of range [0, {len(self._buckets)})")
        self._buckets[key][elem] = None
        self._keys[elem] = key
        if key > self._cursor:
            self._cursor = key

    def find_max(self):
        """(element, key) with the largest key, FIFO on ties; None when empty."""
        buckets = self._buckets
        cursor = self._cursor
        while cursor >= 0 and not buckets[cursor]:
            cursor -= 1
            self.scan_steps += 1
        self._cursor = cursor
        if cursor < 0:
            return None
        return next(iter(buckets[cursor])), cursor

    def decrease_key(self, elem, new_key: int) -> None:
        old = self._keys.get(elem)
        if old is None:
            raise KeyError(f"element {elem!r} is not queued")
        if new_key >= old:
            raise ValueError(f"key for {elem!r} may only decrease ({old} -> {new_key})")
        if new_key < 0:
            raise ValueError(f"key {new_key} out of range")
        del self._buckets[old][elem]
        self._buckets[new_key][elem] = None
        self._keys[elem] = new_key

    def delete(self, elem) -> None:
        key = self._keys.pop(elem, None)
        if key is None:
            raise KeyError(f"element {elem!r} is not queued")
        del self._buckets[key][elem]


@dataclass
class RunStats:
    """Operation counters for one engine run.

    tree_steps: search-tree or bisection advances (at most 2 coordinate
    comparisons each).  dominance_checks: checks against the current leftmost
    maximum, in the scheduler and in the update sweep (2 coordinate
    comparisons each).  update_sort_comparisons: key comparisons spent
    sorting update buffers; update_sorted_points: total buffered points
    sorted.
    """

    tree_steps: int = 0
    dominance_checks: int = 0
    decrease_keys: int = 0
    find_max_scans: int = 0
    update_sorted_points: int = 0
    update_sort_comparisons: int = 0


def entropy_proxy(freq: "FrequencyTable") -> np.ndarray:
    """Entropy (bits) of each position's empirical slab distribution.

    The sum over positions tracks the expected certificate-verification cost
    of an optimal algorithm for the trained product distribution, so it is
    the yardstick the engine's step counts are judged against.
    """
    if freq.rounds < 1:
        raise ValueError("frequency table has no rounds")
    n = freq.counts.shape[0]
    out = np.empty(n, dtype=np.float64)
    step = max(1, 2**16 // max(1, freq.counts.shape[1]))  # bound transient float block
    for lo in range(0, n, step):
        block = freq.counts[lo : lo + step].astype(np.float64) / freq.rounds
        with np.errstate(divide="ignore", invalid="ignore"):
            term = block * np.log2(block)
        term[~np.isfinite(term)] = 0.0
        out[lo : lo + step] = -term.sum(axis=1)
    return out


@dataclass
class EngineState:
    """Mutable run state: the scheduler queue plus per-point search positions."""

    queue: BucketQueue
    lam_hat: int
    buffer: list[int] = field(default_factory=list)
    maxima_rev: list[int] = field(default_factory=list)  # rightmost maximum first
    dominators: dict[int, int] = field(default_factory=dict)
    phat: int = -1  # leftmost maximum found so far (largest y), -1 if none
    node: list[int] = field(default_factory=list)  # current forest node, -1 = fallback/located
    slab_lo: list[int] = field(default_factory=list)
    slab_hi: list[int] = field(default_factory=list)
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)


def make_engine_state(model: "TrainedModel", inp: InputSet) -> EngineState:
    if model.n != inp.n:
        raise ValueError(f"model is for n={model.n}, input has n={inp.n}")
    n = inp.n
    num_slabs = model.slabs.num_slabs
    top = num_slabs - 1
    queue = BucketQueue(num_slabs)
    state = EngineState(queue=queue, lam_hat=top)
    state.xs = inp.xs.tolist()
    state.ys = inp.ys.tolist()
    split = model.forest.split
    # every root covers [0, top] (decoding puts every root there); a trivial tree is pure fallback from the start
    state.node = [r if split[r] >= 0 else -1 for r in model.forest.offsets[:-1]]
    state.slab_lo = [0] * n
    state.slab_hi = [top] * n
    for i in range(n):
        queue.insert(i, top)
    return state


def _merge_sort(a: list) -> tuple[list, int]:
    """Stable merge sort of a; returns the sorted list and the key comparisons it made."""
    if len(a) <= 1:
        return a, 0
    mid = len(a) // 2
    left, comparisons = _merge_sort(a[:mid])
    right, more = _merge_sort(a[mid:])
    comparisons += more
    out = []
    li = ri = 0
    while li < len(left) and ri < len(right):
        comparisons += 1
        if right[ri] < left[li]:
            out.append(right[ri])
            ri += 1
        else:
            out.append(left[li])
            li += 1
    out.extend(left[li:])
    out.extend(right[ri:])
    return out, comparisons


def update_step(state: EngineState, stats: RunStats, new_lam_hat: int) -> None:
    """Fold the buffered frontier-slab points into the maxima staircase.

    Sorts the buffer by x (ties by y then index), sweeps right to left, and
    keeps the running y-realizer as both dominance witness and next leftmost
    maximum.  The previous leftmost maximum seeds the sweep: everything
    already in the staircase lies strictly to the right of the buffer.
    """
    buf = state.buffer
    if buf:
        xs, ys = state.xs, state.ys
        keyed, comparisons = _merge_sort([(xs[i], ys[i], i) for i in buf])
        ordered = [t[2] for t in keyed]
        stats.update_sorted_points += len(buf)
        stats.update_sort_comparisons += comparisons

        r = state.phat
        rx = xs[r] if r >= 0 else 0.0
        ry = ys[r] if r >= 0 else 0.0
        maxima_rev = state.maxima_rev
        dominators = state.dominators
        for i in reversed(ordered):
            px = xs[i]
            py = ys[i]
            if r >= 0:
                stats.dominance_checks += 1
                if rx >= px and ry >= py and (rx > px or ry > py):
                    dominators[i] = r
                    continue
                if py > ry:
                    r, rx, ry = i, px, py
            else:
                r, rx, ry = i, px, py
            maxima_rev.append(i)
        state.phat = r
        buf.clear()
    state.lam_hat = new_lam_hat


def search_step(state: EngineState, model: "TrainedModel", stats: RunStats) -> bool:
    """Advance the rightmost scheduled point by one unit of work.

    Returns False when the queue is empty.  One call does at most: an update
    (when the frontier moves left), one dominance check, and one search
    advance; a located point in the frontier slab is handed to the buffer.
    """
    queue = state.queue
    top = queue.find_max()
    if top is None:
        return False
    i, m = top
    if m < state.lam_hat:
        update_step(state, stats, m)

    phat = state.phat
    if phat >= 0:
        xs, ys = state.xs, state.ys
        px = xs[i]
        py = ys[i]
        hx = xs[phat]
        hy = ys[phat]
        stats.dominance_checks += 1
        if hx >= px and hy >= py and (hx > px or hy > py):
            queue.delete(i)
            state.dominators[i] = phat
            return True

    lo = state.slab_lo[i]
    hi = state.slab_hi[i]
    if lo != hi:
        px = state.xs[i]
        blist = model.slabs.boundary_list()
        nid = state.node[i]
        stats.tree_steps += 1
        if nid >= 0:
            forest = model.forest
            s = forest.split[nid]
            if s > lo and px < blist[s - 1]:
                child = forest.left[nid]
                lo, hi = forest.lo[child], forest.hi[child]
                state.node[i] = child if forest.split[child] >= 0 else -1
            elif s < hi and px >= blist[s]:
                child = forest.right[nid]
                lo, hi = forest.lo[child], forest.hi[child]
                state.node[i] = child if forest.split[child] >= 0 else -1
            else:
                lo = hi = s
                state.node[i] = -1
        else:
            mid = (lo + hi) // 2
            if px < blist[mid]:
                hi = mid
            else:
                lo = mid + 1
        state.slab_lo[i] = lo
        state.slab_hi[i] = hi
        if hi < m:
            queue.decrease_key(i, hi)
            stats.decrease_keys += 1

    if lo == hi and lo == state.lam_hat:
        queue.delete(i)
        state.buffer.append(i)
    return True


def run_maxima(
    model: "TrainedModel",
    inp: InputSet,
    stats: RunStats | None = None,
    debug_invariants: bool = False,
) -> Certificate:
    """Compute the maxima certificate for one input using the trained model.

    Deterministic given (model, input).  With debug_invariants the run checks,
    at every frontier move, that the staircase found so far is exactly the
    true staircase of the points right of the frontier (quadratic oracle
    work, debugging only).
    """
    if stats is None:
        stats = RunStats()
    state = make_engine_state(model, inp)
    if debug_invariants:
        true_leaf = model.slabs.locate_array(inp.xs)
        _check_frontier_invariant(state, inp, true_leaf)
    last_lam = state.lam_hat
    while search_step(state, model, stats):
        if debug_invariants and state.lam_hat != last_lam:
            last_lam = state.lam_hat
            _check_frontier_invariant(state, inp, true_leaf)
    update_step(state, stats, -1)
    if debug_invariants:
        _check_frontier_invariant(state, inp, true_leaf)
    stats.find_max_scans += state.queue.scan_steps
    maxima = tuple(reversed(state.maxima_rev))
    return Certificate(maxima=maxima, dominators=dict(state.dominators))


def _check_frontier_invariant(state: EngineState, inp: InputSet, true_leaf: np.ndarray) -> None:
    right = np.flatnonzero(true_leaf > state.lam_hat)
    expect: tuple[int, ...] = ()
    if right.size:
        sub = InputSet(inp.xs[right], inp.ys[right])
        expect = tuple(int(right[j]) for j in brute_force_maxima(sub).maxima)
    got = tuple(reversed(state.maxima_rev))
    if got != expect:
        raise AssertionError(
            f"frontier invariant broken at slab {state.lam_hat}: staircase {got}, oracle says {expect}"
        )
