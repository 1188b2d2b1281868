"""Limiting-phase maxima engine: interleaved slab searches in one right-to-left sweep.

All points walk their per-position search trees toward their leaf slab, but
the engine always advances a point in the rightmost unresolved slab.  Each
point is keyed by the hi end of its slab interval, and the sweep reads the
keys once from the last slab down to slab 0: a slab's points in arrival
order, where a point whose interval shrinks arrives at the back of a lower
slab.  The sweep thus serves as a max-priority queue with FIFO ties and
decrease-key, since a key only ever falls below the slab being read.  The
leftmost maximum found so far dominates-checks every advanced point, so
points doomed to be dominated usually die after O(1) steps instead of paying
for a full location.  Discovered maxima accumulate left to right, giving the
same certificate shape as the baselines.

No maximum is known while the sweep reads the top slab, so no dominance
check applies there; that slab, most of the search work, is drained in
numpy passes that take the per-point loop's steps and moves in its order,
so every counter means what it means in the rest of the sweep.  The drain
leaves the points it moved as one list ordered by slab descending, index
ascending; the sweep walks that list and, before each slab's drained
points, reads every slab above it that later moves reached, taken from a
heap of occupied slabs.  Empty slabs cost nothing.

Per-run and per-move overhead is kept off the counted work: a frontier move
with an empty buffer skips update_step; slabs no point has moved into share
one empty tuple until their first decrease-key; and a one- or two-point
buffer is ordered directly, at the 0 or 1 comparisons merge sort would count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .geometry import Certificate, InputSet, sort_scan_maxima

if TYPE_CHECKING:
    from .learning import FrequencyTable, TrainedModel


@dataclass
class RunStats:
    """Operation counters for one engine run; a RunStats passed to several runs sums them.

    tree_steps: search-tree or bisection advances (at most 2 coordinate
    comparisons each).  dominance_checks: checks against the current leftmost
    maximum, in the sweep and in the update sweep (2 coordinate comparisons
    each).  decrease_keys: moves of a point to a lower slab, one each time a
    search step leaves its interval's hi end left of the slab being read.
    find_max_scans: num_slabs per run, by definition; the sweep skips empty
    slabs, so it measures nothing and is kept only because perfbench reads
    it.  update_sorted_points: total buffered points sorted;
    update_sort_comparisons: key comparisons spent sorting them, as a stable
    merge sort counts them (0 for one point, 1 for two), whether or not the
    fold actually runs the merge sort.  Frontier moves that find the buffer
    empty fold nothing and count nothing.
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
    of each one's interval.  A later move appends its point to
    arrivals[hi]; a slab no point has moved into holds the shared empty
    tuple until its first entry.  slab_lo holds each point's lo end.
    """

    drained: list[int] = field(default_factory=list)
    drained_slab: list[int] = field(default_factory=list)
    arrivals: list[list[int] | tuple[()]] = field(default_factory=list)  # one per slab below the top
    buffer: list[int] = field(default_factory=list)
    maxima_rev: list[int] = field(default_factory=list)  # rightmost maximum first
    dominators: dict[int, int] = field(default_factory=dict)
    phat: int = -1  # leftmost maximum found so far (largest y), -1 if none
    node: list[int] = field(default_factory=list)  # forest node after the top drain; one whose split is -1 is bisected
    slab_lo: list[int] = field(default_factory=list)  # lo end after the top drain, then after each later move
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    @property
    def buckets(self) -> tuple[Sequence[int], ...]:
        """Each slab's reads in arrival order, rebuilt: its drained points in index order, then its later arrivals; slot top is range(n)."""
        out: list[list[int]] = [[] for _ in self.arrivals]
        for i, m in zip(self.drained, self.drained_slab):
            out[m].append(i)
        return tuple(tuple(b + list(a)) for b, a in zip(out, self.arrivals)) + (range(len(self.xs)),)


def make_engine_state(model: "TrainedModel", inp: InputSet) -> EngineState:
    if model.n != inp.n:
        raise ValueError(f"model is for n={model.n}, input has n={inp.n}")
    top = model.slabs.num_slabs - 1
    # every point starts with the whole slab range [0, top]; the top drain moves them
    return EngineState(arrivals=[()] * top, xs=inp.xs.tolist(), ys=inp.ys.tolist())


def _drain_top(state: EngineState, model: "TrainedModel", xs: np.ndarray) -> tuple[int, int]:
    """Drain the top bucket in numpy passes; return its (tree steps, decrease keys).

    A pass steps every point still in the bucket (hi == top), which stays
    while it goes right of the pivot (the node's split, or (lo + top) >> 1
    if unexpanded) and lo < top.  On the padded boundaries bp[lo] <= x <
    bp[hi + 1] holds, so the guards s > lo and s < hi hold on their own.
    Each stopping step is then replayed; the located points join the buffer
    in index order, and the others fill state.drained and state.drained_slab
    by slab descending, index ascending.  Fills state.node and state.slab_lo.
    """
    top = len(state.arrivals)
    split = np.frombuffer(model.forest.split, dtype=np.intc)
    right = np.frombuffer(model.forest.right, dtype=np.intc)
    bp = model.slabs.padded
    n = xs.size
    lo = np.zeros(n, dtype=np.intp)
    node = np.arange(n, dtype=np.intp)  # root i is node i and covers [0, top]
    live = np.arange(n)
    steps = 0
    while live.size:
        steps += live.size
        j = node[live]
        s = split[j]
        bare = s < 0
        pivot = np.where(bare, (lo[live] + top) >> 1, s)
        go = xs[live] >= bp[pivot + 1]
        live, j, pivot, bare = live[go], j[go], pivot[go], bare[go]
        lo[live] = pivot + 1
        node[live] = np.where(bare, j, right[j])
        live = live[pivot < top - 1]  # lo == top locates the point
    # the stopping step went left of a bisection midpoint or of a split, or onto the split's slab
    stopped = np.flatnonzero(lo < top)
    j = node[stopped]
    s = split[j]
    edge = np.where(s < 0, ((lo[stopped] + top) >> 1) + 1, s)  # first slab right of a left step
    left = xs[stopped] < bp[edge]
    hi = np.full(n, top, dtype=np.intp)
    hi[stopped] = np.where(left, edge - 1, edge)
    lo[stopped[~left]] = edge[~left]
    node[stopped] = np.where(left & (s >= 0), right[j] - 1, j)  # the left child sits just before the right-child slot
    order = np.argsort(-hi, kind="stable")  # slab by slab from the top, each in index order
    located = int(np.count_nonzero(hi == top))
    moved = order[located:]
    state.buffer.extend(order[:located].tolist())
    state.drained, state.drained_slab = moved.tolist(), hi[moved].tolist()
    state.node, state.slab_lo = node.tolist(), lo.tolist()
    return steps, moved.size


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


def update_step(state: EngineState, stats: RunStats) -> None:
    """Fold the buffered frontier-slab points, at least one, into the maxima staircase.

    Sorts the buffer by x (ties by y then index), sweeps right to left, and
    keeps the running y-realizer as both dominance witness and next leftmost
    maximum.  The previous leftmost maximum seeds the sweep: everything
    already in the staircase lies strictly to the right of the buffer.  A
    one-point buffer needs no sort and a two-point buffer one comparison,
    which is what _merge_sort would count for them; longer buffers go
    through _merge_sort.
    """
    buf = state.buffer
    xs, ys = state.xs, state.ys
    if len(buf) == 1:
        i = buf[0]
        keyed, comparisons = ((xs[i], ys[i], i),), 0
    elif len(buf) == 2:
        i, j = buf
        a, b = (xs[i], ys[i], i), (xs[j], ys[j], j)
        keyed, comparisons = ((b, a) if b < a else (a, b)), 1  # the merge of two singletons
    else:
        keyed, comparisons = _merge_sort([(xs[i], ys[i], i) for i in buf])
    stats.update_sorted_points += len(buf)
    stats.update_sort_comparisons += comparisons

    r = state.phat
    rx = xs[r] if r >= 0 else 0.0
    ry = ys[r] if r >= 0 else 0.0
    maxima_rev = state.maxima_rev
    dominators = state.dominators
    checks = 0
    for px, py, i in reversed(keyed):
        if r >= 0:
            checks += 1
            if rx >= px and ry >= py and (rx > px or ry > py):
                dominators[i] = r
                continue
            if py > ry:
                r, rx, ry = i, px, py
        else:
            r, rx, ry = i, px, py
        maxima_rev.append(i)
    stats.dominance_checks += checks
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
    into the staircase (update_step) if it holds points.  Each advance of
    the point read, the rightmost unresolved one, is one dominance check
    against the leftmost maximum so far plus one search step, until the
    point is dominated, buffered in the frontier slab, or stepped left of m
    into a lower slab's arrivals.  Deterministic given (model, input).

    debug_invariants takes the same steps and adds a check of the top drain
    (_check_drain), then one after every frontier move, empty or not, and
    after the final fold: the staircase found so far must be exactly the
    true staircase of the points right of the frontier.  Slabs do not
    decrease as x grows, so that staircase is the suffix of the full one
    (one sort_scan_maxima answer per run) whose slabs lie right of the
    frontier.  The certificate and counters are the same as without it.
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
    phat = hx = hy = -1
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
                hx, hy = xs[phat], ys[phat]
            if debug_invariants:
                _check_frontier_invariant(state, ref_rev, ref_slab, m)
        px, py = xs[i], ys[i]
        lo, hi, nid = slab_lo[i], m, node[i]
        while True:  # i stays the rightmost point until it leaves slab m
            if phat >= 0:
                checks += 1
                if hx >= px and hy >= py and (hx > px or hy > py):
                    dominators[i] = phat
                    break
            if lo != hi:
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
            if lo == hi:
                buffer.append(i)
                break
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
        or state.buffer != np.flatnonzero(slab == top).tolist()
    ):
        raise AssertionError(f"top-bucket drain moved {moved.size} points and buffered {state.buffer}, but the slabs say otherwise")
    lo = np.asarray(state.slab_lo, dtype=np.intp)[moved]
    bad = np.flatnonzero((lo > slab[moved]) | (slab[moved] > hi) | (hi >= top))
    if bad.size:
        i = bad[0]
        raise AssertionError(f"top-bucket drain put point {moved[i]} of slab {slab[moved[i]]} in interval [{lo[i]}, {hi[i]}]")
