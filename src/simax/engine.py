"""Limiting-phase maxima engine: interleaved slab searches in one right-to-left sweep.

All points walk their per-position search trees toward their leaf slab, but
the engine always advances a point in the rightmost unresolved slab.  Each
point is keyed by the hi end of its slab interval, and the sweep reads the
keys once from the last slab down to slab 0: a slab's points in arrival
order, where a point whose interval shrinks arrives at the back of a lower
slab.  The sweep thus serves as a max-priority queue with FIFO ties and
decrease-key, since a key only ever falls below the slab being read.  The
sweep checks each point it reads once against the leftmost maximum found
so far, which changes only at a frontier move, so points doomed to be
dominated usually die after O(1) steps instead of paying for a full
location.  That maximum lies in a slab right of the one being read, so the
check is one y comparison, made before the point's x or search position is
read, and a point that survives it searches on unchecked in that slab.
Discovered maxima accumulate left to right, giving the same certificate
shape as the baselines.

No maximum is known while the sweep reads the top slab, so no dominance
check applies there.  That slab holds most of the search work, and a point
stays in it only while it goes right, so its path there is its tree's
right spine, which depends on the model alone.  A model is frozen, so
it keeps a table of every position's spine, built by _spine_table on its
first run (TrainedModel._spine) and valid for its life: one entry per step
along it, holding the boundary a point must reach to go right and the lo
end it has before that step, then a +inf entry where the spine ends.  An
entry also holds the step a point takes if it stops there: the slab
edge a left step ends below and the node it leads to.  The entries of
all positions sit back to back in flat columns at 16 bytes or less each up to
65,536 slabs, so the table grows with the forest's nodes and
n * log2(num_slabs), not with its deepest spine (0.36-0.39 MB at n=2048
and 1.7-1.85 MB at n=8192 on the built-in scenarios).  The drain takes
one numpy pass per depth against it and then the stopping step from the
entry each point stopped at, with the per-point loop's steps and moves
in its order, so every counter means what it means in the rest of the
sweep.  Per-point state the sweep reads only for the points that survive
their dominance check (x, node, lo end) is held in typed arrays made
from numpy's bytes, not in lists of boxed values.  The drain leaves
the points it moved as one list ordered by slab descending, index
ascending; the sweep walks that list and, before each slab's drained
points, reads every slab above it that later moves reached, taken from a
heap of occupied slabs.  Empty slabs cost nothing.

Per-run and per-move overhead is kept off the counted work: a frontier move
with an empty buffer skips update_step; slabs no point has moved into share
one empty tuple until their first decrease-key; and a buffered point carries
its sort key (x, y, index), built from coordinates the sweep already holds.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .geometry import Certificate, InputSet, sort_scan_maxima

if TYPE_CHECKING:
    from .learning import FrequencyTable, TrainedModel


@dataclass
class RunStats:
    """Operation counters for one engine run; a RunStats passed to several runs sums them.

    tree_steps: search-tree or bisection advances (at most 2 coordinate
    comparisons each).  dominance_checks: checks against the current leftmost
    maximum, one per read below the top slab once a maximum is known (one y
    comparison, since that maximum lies in a slab right of the point's),
    plus one per point the update sweep folds once one is known (up to 2
    coordinate comparisons, since buffered points share a slab).
    decrease_keys: moves of a point to a lower slab, one each time a search
    step leaves its interval's hi end left of the slab being read.
    find_max_scans: num_slabs per run, by definition; the sweep skips empty
    slabs, so it measures nothing and is kept only because perfbench reads
    it.  update_sorted_points: total buffered points sorted;
    update_sort_comparisons: key comparisons spent sorting them, as a stable
    merge sort counts them (0 for one point, 1 for two).  Frontier moves
    that find the buffer empty fold nothing and count nothing.
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
    the yardstick the engine's step counts are judged against.  The term
    p*log2(p) of each count c (p = c/rounds) is computed once per count
    value up to the table's largest, so the table sizes it and rounds does
    not; each row then sums its terms looked up by count.
    """
    if freq.rounds < 1:
        raise ValueError("frequency table has no rounds")
    counts = freq.counts
    p = np.arange(int(counts.max(initial=0)) + 1, dtype=np.float64) / freq.rounds
    with np.errstate(divide="ignore", invalid="ignore"):
        term = p * np.log2(p)
    term[~np.isfinite(term)] = 0.0  # 0*log2(0)
    n = counts.shape[0]
    out = np.empty(n, dtype=np.float64)
    step = max(1, 2**16 // max(1, counts.shape[1]))  # bound transient float block
    for lo in range(0, n, step):
        out[lo : lo + step] = -term[counts[lo : lo + step]].sum(axis=1)
    return out


@dataclass
class EngineState:
    """Mutable run state: the slab keys of the points below the top slab, plus per-point search positions.

    The top drain fills drained, the points it moved below the top slab in
    (slab descending, index ascending) order, and drained_slab, the hi end
    of each one's interval, and takes node and slab_lo from the entry of
    the model's spine table each point stopped at, with each stopping step
    applied.  A later move appends its point to arrivals[hi]; a slab no
    point has moved into holds the shared empty tuple until its first
    entry.  slab_lo holds each point's lo end.  The sweep reads these
    through _reads, so no per-slab list of reads is kept.  buffer holds the
    (x, y, index) sort key of each point located in the frontier slab.

    The per-point columns the sweep reads only for some points (xs, node,
    slab_lo) and the drained lists are typed arrays made from numpy's
    bytes in one copy each, where a list would box every entry.  ys, read
    at every dominance check, stays a list: a list read hands back the
    float it holds, where an array read boxes a new one.
    """

    drained: array = field(default_factory=lambda: array("i"))
    drained_slab: array = field(default_factory=lambda: array("i"))
    arrivals: list[list[int] | tuple[()]] = field(default_factory=list)  # one per slab below the top
    buffer: list[tuple[float, float, int]] = field(default_factory=list)
    maxima_rev: list[int] = field(default_factory=list)  # rightmost maximum first
    dominators: dict[int, int] = field(default_factory=dict)
    phat: int = -1  # leftmost maximum found so far (largest y), -1 if none
    node: array = field(default_factory=lambda: array("i"))  # forest node, read only while lo < hi; one whose split is -1 is bisected
    slab_lo: array = field(default_factory=lambda: array("i"))  # lo end after the top drain, then after each later move
    xs: array = field(default_factory=lambda: array("d"))
    ys: list[float] = field(default_factory=list)


def make_engine_state(model: "TrainedModel", inp: InputSet) -> EngineState:
    if model.n != inp.n:
        raise ValueError(f"model is for n={model.n}, input has n={inp.n}")
    top = model.slabs.num_slabs - 1
    # every point starts with the whole slab range [0, top]; the top drain moves them.
    # InputSet holds native float64, so its bytes are the array("d") items
    return EngineState(arrivals=[()] * top, xs=array("d", inp.xs.tobytes()), ys=inp.ys.tolist())


def _spine_table(model: "TrainedModel") -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each position's right spine, stored ragged: (thr, lo, edge, left, start).

    A point in the top slab goes right at every step it takes there, so its
    search path while it stays is its tree's right spine, which depends on
    the model alone.  Position i's spine takes entries start[i],
    start[i] + 1, ... of the flat columns.  Its entry d holds the interval
    lo end before step d and the padded boundary bp[pivot + 1] a point must
    reach to go right at that step (the pivot is the node's split, or
    (lo + top) >> 1 if unexpanded).  The last entry has thr = +inf: at
    lo == top the point is located, and a split on the top slab is passed
    by no point.  The entry also holds the step a point takes if it stops
    there: edge is the first slab right of a left step (the split, or the
    bisection midpoint + 1; top where lo == top, so nothing goes left), and
    left is the node a left step leads to (the split's left child,
    right[j] - 1, or the unexpanded node itself).  lo and edge take the
    narrowest unsigned dtype that holds top, so an entry takes at most 16
    bytes (float64 thr, int32 left, uint16 lo and edge) up to 65,536 slabs,
    and start 8 per position.  A spine has one entry per right step plus one,
    and a right step either moves to a right child of the tree or halves a
    bare interval, so the table holds at most n plus the forest's nodes
    plus n * ceil(log2(num_slabs)) entries.
    """
    top = model.slabs.num_slabs - 1
    split = np.frombuffer(model.forest.split, dtype=np.intc)
    right = np.frombuffer(model.forest.right, dtype=np.intc)
    bp = model.slabs.padded
    n = model.n
    lo = np.zeros(n, dtype=np.intc)
    node = np.arange(n, dtype=np.intc)  # root i is node i and covers [0, top]
    length = np.zeros(n, dtype=np.intp)
    depths = []  # per depth: the positions whose spine reaches it, and their entries
    live = np.arange(n)
    while live.size:
        j, lo_j = node[live], lo[live]
        s = split[j]
        bare = s < 0
        pivot = np.where(bare, (lo_j + top) >> 1, s)  # top where lo == top: a bare midpoint, or a split on [top, top]
        left = np.where(bare, j, right[j] - 1)  # the left child sits just before the right-child slot
        edge = np.minimum(pivot + bare, top)  # a bisection midpoint + 1 or a split; top where lo == top
        depths.append((live, bp[pivot + 1], lo_j, edge, left))  # bp[top + 1] is +inf, which ends the spine
        length[live] = len(depths)
        go = pivot < top
        live, pivot, left, bare = live[go], pivot[go], left[go], bare[go]
        lo[live] = pivot + 1
        node[live] = left + ~bare  # a bare node stays, a split moves to its right child
    start = np.zeros(n, dtype=np.intp)
    np.cumsum(length[:-1], out=start[1:])
    size = int(length.sum())
    key = np.min_scalar_type(top)
    thr, los, edges, lefts = np.empty(size), np.empty(size, dtype=key), np.empty(size, dtype=key), np.empty(size, dtype=np.intc)
    for d, (live, t, lo_j, edge, left) in enumerate(depths):
        entry = start[live] + d
        thr[entry], los[entry], edges[entry], lefts[entry] = t, lo_j, edge, left
    return thr, los, edges, lefts, start


def _int_array(values: np.ndarray) -> array:
    """values as an array("i"), built from their bytes rather than element by element."""
    return array("i", values.astype(np.intc, copy=False).tobytes())


def _drain_top(state: EngineState, model: "TrainedModel", xs: np.ndarray) -> tuple[int, int]:
    """Drain the top bucket along the model's spine table; return its (tree steps, decrease keys).

    A point stays in the bucket (hi == top) while it goes right, so one
    pass per depth keeps the points whose x reaches their spine's next
    threshold.  The +inf that ends every spine stops each point within its
    own entries, and the entry it stops at gives its lo end and the step
    it takes there: left of bp[edge] it goes left, to [lo, edge - 1] and
    node left; otherwise it lands on [edge, edge].  That step is a tree
    step unless lo == top, where edge == top locates the point by its last
    right step.  A bare node's stop always goes left, since its threshold
    is bp[edge], and a split's never does when it lies on lo, since
    bp[lo] <= x on the padded boundaries.  After the stop a point's node is read only if its
    interval spans more than one slab, which only a left step leaves.  The
    located points' keys join the buffer in index order, and the others fill
    state.drained and state.drained_slab by slab descending, index
    ascending.  Fills state.node and state.slab_lo.
    """
    top = len(state.arrivals)
    thr, lo_at, edge_at, left_at, start = model._spine
    bp = model.slabs.padded
    at = start.copy()  # each point's entry: its spine's start plus the right steps it took
    live = np.flatnonzero(xs >= thr[start])
    entry = start[live] + 1
    while live.size:
        at[live] = entry
        go = xs[live] >= thr[entry]
        live, entry = live[go], entry[go] + 1
    lo, edge = lo_at[at], edge_at[at]
    steps = int(at.sum() - start.sum()) + int(np.count_nonzero(lo < top))
    left = xs < bp[edge]
    hi = edge - left
    lo = np.where(left, lo, edge)
    # slab by slab from the top, each in index order; hi is as narrow as top
    # (uint16 up to 65536 slabs), which numpy radix-sorts, where int64 is not
    order = np.argsort(top - hi, kind="stable")
    located = int(np.count_nonzero(hi == top))
    moved, loc = order[located:], order[:located].tolist()
    state.buffer.extend(zip(xs[loc].tolist(), [state.ys[i] for i in loc], loc))
    state.drained, state.drained_slab = _int_array(moved), _int_array(hi[moved])
    state.node, state.slab_lo = _int_array(left_at[at]), _int_array(lo)
    return steps, moved.size


def _merge_sort(a: list) -> tuple[list, int]:
    """Stable merge sort of a; returns the sorted list and the key comparisons it made.

    One key costs no comparison and two keys one, the merge of two
    singletons: the right key goes first only if it is smaller.  A list of
    at most two keys already in order is returned as it is, not copied.
    """
    if len(a) <= 1:
        return a, 0
    if len(a) == 2:
        return ([a[1], a[0]] if a[1] < a[0] else a), 1
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


def update_step(state: EngineState, stats: RunStats) -> None:
    """Fold the buffered frontier-slab points, at least one, into the maxima staircase.

    Sorts the buffer's (x, y, index) keys, sweeps them right to left, and
    keeps the running y-realizer as both dominance witness and next leftmost
    maximum.  The previous leftmost maximum seeds the sweep: everything
    already in the staircase lies strictly to the right of the buffer.  With
    none yet, the sweep starts from (-inf, -inf), so the rightmost key
    becomes the first maximum unchecked and the fold counts one check
    fewer than it has points.  _merge_sort may hand back the buffer itself,
    so the buffer is cleared only after the sweep.
    """
    buf = state.buffer
    keyed, comparisons = _merge_sort(buf)
    stats.update_sorted_points += len(buf)
    stats.update_sort_comparisons += comparisons
    r = state.phat
    stats.dominance_checks += len(buf) - (r < 0)
    rx, ry = (state.xs[r], state.ys[r]) if r >= 0 else (-math.inf, -math.inf)
    maxima_rev = state.maxima_rev
    dominators = state.dominators
    for px, py, i in reversed(keyed):
        if rx >= px and ry >= py and (rx > px or ry > py):  # buffered points share a slab, so x can tie
            dominators[i] = r
            continue
        if py > ry:
            r, rx, ry = i, px, py
        maxima_rev.append(i)
    state.phat = r
    buf.clear()


def _reads(state: EngineState, occupied: list[int]) -> Iterator[tuple[int, int]]:
    """Yield (slab, point) for every read below the top slab, slab descending, each slab in arrival order.

    A slab's drained points come first, in index order, then its arrivals.
    occupied is a heap of the negated slabs whose arrival list is nonempty;
    the caller appends to arrivals and pushes onto it between reads, always
    for a slab below the one just read, so each slab is read once.
    """
    arrivals = state.arrivals
    for i, m in zip(state.drained, state.drained_slab):
        while occupied and -occupied[0] > m:
            h = -heappop(occupied)
            for j in arrivals[h]:
                yield h, j
        yield m, i
    while occupied:
        h = -heappop(occupied)
        for j in arrivals[h]:
            yield h, j


def run_maxima(
    model: "TrainedModel",
    inp: InputSet,
    stats: RunStats | None = None,
    debug_invariants: bool = False,
) -> Certificate:
    """Compute the maxima certificate for one input using the trained model.

    The sweep reads the slabs once, from the last slab m down to 0; the top
    one, where no maximum is known, is drained in numpy passes.  Below it,
    the first read of slab m moves the frontier there, folding the buffer
    into the staircase (update_step) if it holds points.  The point read,
    the rightmost unresolved one, gets one dominance check against the
    leftmost maximum so far; if it survives, it takes search steps until it
    is buffered in the frontier slab or stepped left of m into a lower
    slab's arrivals.  Deterministic given (model, input).  The drain reads
    the model's spine table, which the model's first run builds.

    debug_invariants takes the same steps and adds a check of the top drain
    (_check_drain), then one after every frontier move, empty or not, and
    after the final fold: the staircase found so far must be exactly the
    true staircase of the points right of the frontier.  At each move it
    also checks that the leftmost maximum lies in a slab right of the
    frontier, which the y-only dominance test needs.  Slabs do not decrease as x grows, so that staircase is the
    suffix of the full one (one sort_scan_maxima answer per run) whose slabs
    lie right of the frontier.  The certificate and counters are the same as without it.
    """
    if stats is None:
        stats = RunStats()
    state = make_engine_state(model, inp)
    steps, decreases = _drain_top(state, model, inp.xs)
    if debug_invariants:
        slab = model.slabs.locate_array(inp.xs)
        _check_drain(state, slab)
        ref = sort_scan_maxima(inp).maxima
        ref_slab = slab[list(ref)]
        ref_rev = list(reversed(ref))
    xs, ys, node, slab_lo = state.xs, state.ys, state.node, state.slab_lo
    arrivals, buffer, dominators = state.arrivals, state.buffer, state.dominators
    split, right = model.forest.split, model.forest.right
    blist = model.slabs.boundary_list()
    lam_hat = len(arrivals)
    # phat, the leftmost maximum so far, was located in a slab right of m, so
    # xs[phat] > px for every point read at m and dominance is hy >= py, fixed
    # for the point's whole walk in m; with no maximum yet, hy = -inf fails
    # that test and chk counts nothing
    phat, hy, chk = -1, -math.inf, 0
    checks = 0
    occupied: list[int] = []
    # every point read is live: a point is only ever moved to a slab left of
    # m, so nothing touches it again until the sweep gets there
    for m, i in _reads(state, occupied):
        if m < lam_hat:
            lam_hat = m
            if buffer:
                update_step(state, stats)
                phat = state.phat
                hy, chk = ys[phat], 1
            if debug_invariants:
                if phat >= 0 and slab[phat] <= m:
                    raise AssertionError(
                        f"leftmost maximum {phat} lies in slab {slab[phat]}, not right of frontier slab {m}, "
                        "so the sweep's y-only dominance test does not hold"
                    )
                _check_frontier_invariant(state, ref_rev, ref_slab, m)
        py = ys[i]
        checks += chk
        if hy >= py:
            dominators[i] = phat
            continue
        px = xs[i]
        lo, hi, nid = slab_lo[i], m, node[i]
        while lo != hi:  # i stays the rightmost point until it leaves slab m
            steps += 1
            s = split[nid]
            if s < 0:  # an unexpanded node: bisect what is left of its interval
                mid = (lo + hi) // 2
                if px < blist[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            elif s > lo and px < blist[s - 1]:
                hi = s - 1
                nid = right[nid] - 1  # the left child sits just before the right-child slot
            elif s < hi and px >= blist[s]:
                lo = s + 1
                nid = right[nid]
            else:
                lo = hi = s
            if hi < m:
                a = arrivals[hi]
                if a:
                    a.append(i)
                else:  # the shared empty tuple
                    arrivals[hi] = [i]
                    heappush(occupied, -hi)
                decreases += 1
                slab_lo[i], node[i] = lo, nid
                break
        else:
            buffer.append((px, py, i))
    stats.tree_steps += steps
    stats.dominance_checks += checks
    stats.decrease_keys += decreases
    if buffer:
        update_step(state, stats)
    if debug_invariants:
        _check_frontier_invariant(state, ref_rev, ref_slab, -1)
    stats.find_max_scans += len(arrivals) + 1  # num_slabs, by definition
    maxima = tuple(reversed(state.maxima_rev))
    return Certificate(maxima=maxima, dominators=state.dominators)


def _check_frontier_invariant(state: EngineState, ref_rev: list[int], ref_slab: np.ndarray, lam_hat: int) -> None:
    """Raise unless the staircase is the reference's maxima (ref_rev, rightmost first) whose slab is > lam_hat."""
    k = len(ref_rev) - int(np.searchsorted(ref_slab, lam_hat, "right"))
    if state.maxima_rev != ref_rev[:k]:
        got, expect = tuple(reversed(state.maxima_rev)), tuple(reversed(ref_rev[:k]))
        raise AssertionError(f"frontier invariant broken at slab {lam_hat}: staircase {got}, oracle says {expect}")


def _check_drain(state: EngineState, slab: np.ndarray) -> None:
    """Raise unless the drained points are exactly the points off the top slab, in (interval hi descending, index
    ascending) order, each interval holds its point's slab (slab[i]) below the top, and the buffer is the top slab's points."""
    top = len(state.arrivals)
    moved = np.array(state.drained, dtype=np.intp)
    hi = np.array(state.drained_slab, dtype=np.intp)
    step, gap = np.diff(hi), np.diff(moved)
    if (
        hi.size != moved.size
        or not np.array_equal(np.sort(moved), np.flatnonzero(slab < top))
        or ((step > 0) | ((step == 0) & (gap <= 0))).any()
        or [i for _, _, i in state.buffer] != np.flatnonzero(slab == top).tolist()
    ):
        raise AssertionError(f"top-bucket drain moved {moved.size} points and buffered {state.buffer}, but the slabs say otherwise")
    lo = np.asarray(state.slab_lo, dtype=np.intp)[moved]
    bad = np.flatnonzero((lo > slab[moved]) | (slab[moved] > hi) | (hi >= top))
    if bad.size:
        i = bad[0]
        raise AssertionError(f"top-bucket drain put point {moved[i]} of slab {slab[moved[i]]} in interval [{lo[i]}, {hi[i]}]")
