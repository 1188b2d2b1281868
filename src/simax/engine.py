"""Limiting-phase maxima engine: interleaved slab searches in one right-to-left sweep.

All points walk their per-position search trees toward their leaf slab, but
the engine always advances a point in the rightmost unresolved slab.  Each
point sits in the bucket of the hi end of its slab interval, and the sweep
drains the buckets once from the last slab down to slab 0, each in arrival
order; a point whose interval shrinks joins the back of a lower bucket.  The
sweep thus serves as a max-priority queue with FIFO ties and decrease-key
without any queue structure, since a key only ever falls below the bucket
being drained.  The leftmost
maximum found so far dominates-checks every advanced point, so points doomed
to be dominated usually die after O(1) steps instead of paying for a full
location.  Discovered maxima accumulate left to right, giving the same
certificate shape as the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Certificate, InputSet, brute_force_maxima

if TYPE_CHECKING:
    from .learning import FrequencyTable, TrainedModel


@dataclass
class RunStats:
    """Operation counters for one engine run; a RunStats passed to several runs sums them.

    tree_steps: search-tree or bisection advances (at most 2 coordinate
    comparisons each).  dominance_checks: checks against the current leftmost
    maximum, in the sweep and in the update sweep (2 coordinate comparisons
    each).  decrease_keys: moves of a point to a lower bucket, one each time
    a search step leaves its interval's hi end left of the bucket being
    drained.  find_max_scans: buckets the sweep passes, which is num_slabs
    per run.  update_sorted_points: total buffered points sorted;
    update_sort_comparisons: key comparisons spent sorting them.
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
    """Mutable run state: the per-slab buckets plus per-point search positions.

    buckets[m] holds the points whose slab interval ends at slab m, in
    arrival order; slab_lo holds each point's lo end.
    """

    buckets: list[list[int]]
    lam_hat: int
    buffer: list[int] = field(default_factory=list)
    maxima_rev: list[int] = field(default_factory=list)  # rightmost maximum first
    dominators: dict[int, int] = field(default_factory=dict)
    phat: int = -1  # leftmost maximum found so far (largest y), -1 if none
    node: list[int] = field(default_factory=list)  # current forest node; one whose split is -1 is bisected
    slab_lo: list[int] = field(default_factory=list)
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)


def make_engine_state(model: "TrainedModel", inp: InputSet) -> EngineState:
    if model.n != inp.n:
        raise ValueError(f"model is for n={model.n}, input has n={inp.n}")
    n = inp.n
    top = model.slabs.num_slabs - 1
    # every point starts with the whole slab range [0, top]
    state = EngineState(buckets=[[] for _ in range(top)] + [list(range(n))], lam_hat=top)
    state.xs = inp.xs.tolist()
    state.ys = inp.ys.tolist()
    state.node = list(range(n))  # root i is node i and covers [0, top]
    state.slab_lo = [0] * n
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
        stats.update_sorted_points += len(buf)
        stats.update_sort_comparisons += comparisons

        r = state.phat
        rx = xs[r] if r >= 0 else 0.0
        ry = ys[r] if r >= 0 else 0.0
        maxima_rev = state.maxima_rev
        dominators = state.dominators
        for px, py, i in reversed(keyed):
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


def run_maxima(
    model: "TrainedModel",
    inp: InputSet,
    stats: RunStats | None = None,
    debug_invariants: bool = False,
) -> Certificate:
    """Compute the maxima certificate for one input using the trained model.

    The sweep drains the buckets once, from the last slab m down to 0, and
    the first point of bucket m moves the frontier there (update_step).  Each
    advance of that point, the rightmost unresolved one, is one dominance
    check against the leftmost maximum so far plus one search step, until
    the point is dominated, buffered in the frontier slab, or stepped left of
    m into a lower bucket.  Deterministic given (model, input).  With
    debug_invariants the run checks, at every frontier move, that the
    staircase found so far is exactly the true staircase of the points right
    of the frontier (quadratic oracle work, debugging only).
    """
    if stats is None:
        stats = RunStats()
    state = make_engine_state(model, inp)
    if debug_invariants:
        true_leaf = model.slabs.locate_array(inp.xs)
        _check_frontier_invariant(state, inp, true_leaf)
    buckets = state.buckets
    xs, ys, node, slab_lo = state.xs, state.ys, state.node, state.slab_lo
    buffer, dominators = state.buffer, state.dominators
    split, right = model.forest.split, model.forest.right
    blist = model.slabs.boundary_list()
    lam_hat = state.lam_hat
    phat = hx = hy = -1
    steps = checks = decreases = 0
    for m in range(len(buckets) - 1, -1, -1):
        # every entry of bucket m is live: a point is only ever appended to a
        # bucket left of m, so nothing touches it again until the sweep gets there
        for i in buckets[m]:
            if m < lam_hat:
                update_step(state, stats, m)
                lam_hat, phat = m, state.phat
                hx, hy = xs[phat], ys[phat]  # not read while phat is -1
                if debug_invariants:
                    _check_frontier_invariant(state, inp, true_leaf)
            px, py = xs[i], ys[i]
            lo, hi, nid = slab_lo[i], m, node[i]
            while True:  # i stays the rightmost point until it leaves bucket m
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
                        buckets[hi].append(i)
                        decreases += 1
                        slab_lo[i], node[i] = lo, nid
                        break
                if lo == hi:
                    buffer.append(i)
                    break
    stats.tree_steps += steps
    stats.dominance_checks += checks
    stats.decrease_keys += decreases
    update_step(state, stats, -1)
    if debug_invariants:
        _check_frontier_invariant(state, inp, true_leaf)
    stats.find_max_scans += len(buckets)  # one downward move past each bucket
    maxima = tuple(reversed(state.maxima_rev))
    return Certificate(maxima=maxima, dominators=state.dominators)


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
