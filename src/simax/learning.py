"""Training: slab structure, per-point frequencies, and partial search trees.

Training draws a small number of inputs to build a global slab decomposition
of the x-axis, then estimates where each input position tends to land and
compiles one weighted-median search tree per position.  Tree size adapts to
each position's empirical entropy; regions a position rarely visits are left
to a plain binary search fallback, which caps total space.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import engine
from .distributions import SCENARIO_COLUMNS, ScenarioSpec, SeededRng, sample_input, sample_xs
from .geometry import InputSet

MODEL_FORMAT = "simax-model"
MODEL_VERSION = 10
# the forest's splits column is uint16 while every slab index fits in it, int32 above
_SPLIT_U2_MAX_SLABS = 65536


# collect_frequencies draws and locates its rounds in blocks of at most this many points, and at least one round
_BLOCK_POINTS = 2**14

# the bucket grid of SlabStructure.locate_array: cells per boundary, and the
# most boundaries one cell may hold before its points take the sorted search
_GRID_CELLS_PER_BOUNDARY = 2
_GRID_MAX_PASSES = 4
# with more than this share of the boundaries in cells over the pass cap, most
# points would take the fallback, and the sorted search alone is cheaper
_GRID_MAX_HEAVY_SHARE = 0.125


class SlabStructure:
    """Partition of the x-axis into half-open slabs between sorted boundaries.

    With boundaries b_0 < ... < b_{m-1} the leaf slabs are
    (-inf, b_0), [b_0, b_1), ..., [b_{m-1}, +inf), indexed 0..m.  A boundary
    value belongs to the slab on its right.

    locate_array finds slabs through a bucket grid over [b_0, b_{m-1}],
    built on its first call, so constructing or loading a structure never
    pays for it.  Its results equal np.searchsorted(boundaries, xs,
    side="right") exactly.
    """

    __slots__ = ("boundaries", "padded", "_blist", "_grid")

    def __init__(self, boundaries):
        b = np.asarray(boundaries, dtype=np.float64)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("boundaries must be a nonempty 1-d array")
        if not np.isfinite(b).all():
            raise ValueError("boundaries must be finite")
        if not (np.diff(b) > 0).all():
            raise ValueError("boundaries must be strictly increasing")
        self.boundaries = b
        self.padded = np.concatenate(([-np.inf], b, [np.inf]))  # slab k is [padded[k], padded[k + 1])
        self._blist = b.tolist()  # plain floats for hot loops
        self._grid = None  # the _BucketGrid, or False where the boundaries admit none; built by locate_array

    @property
    def num_slabs(self) -> int:
        return self.boundaries.size + 1

    def locate_array(self, xs) -> np.ndarray:
        """The slab of each x, as np.searchsorted(boundaries, xs, side="right") gives it, for any shape."""
        grid = self._grid
        if grid is None:
            grid = self._grid = _BucketGrid.build(self.boundaries) or False
        x = np.asarray(xs)
        # a float wider than float64 compares in its own precision; +inf would
        # step past the grid's +inf pad, and NaN, which sorts last, has no cell
        if grid and np.result_type(x, np.float64) == np.float64:
            flat = x.astype(np.float64, copy=False).reshape(-1)
            if flat.max(initial=-math.inf) < math.inf:
                return grid.locate(self.boundaries, flat).reshape(x.shape)[()]
        return _sorted_search(self.boundaries, x.reshape(-1)).reshape(x.shape)[()]

    def boundary_list(self) -> list[float]:
        return self._blist

    def __repr__(self) -> str:
        return f"SlabStructure(num_slabs={self.num_slabs})"


def _sorted_search(b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """np.searchsorted(b, xs, side="right") on 1-d xs, searched in sorted order, which keeps numpy's bisection short."""
    order = np.argsort(xs)
    out = np.empty(xs.size, dtype=np.intp)
    out[order] = np.searchsorted(b, xs[order], side="right")
    return out


class _BucketGrid(NamedTuple):
    """Equal-width cells over [b_0, b_{m-1}] that locate a point with a few vectorised passes.

    A point's cell is trunc(clip((x - b_0) * scale, 0, cells - 1)).  The
    boundaries' cells come from the same float64 operations, which are
    monotone, so every boundary in a cell below x's is <= x and every one
    in a cell above is > x.  A point starts at first[cell], the count of
    boundaries in lower cells, and each pass steps it past one boundary of
    its own cell that is <= x; bpad ends in +inf, which no x below +inf
    passes, so no step leaves the array.  passes is the most boundaries a
    light cell holds; points in a heavy cell, one with more than
    _GRID_MAX_PASSES boundaries, take the sorted search instead.
    """

    b0: float
    scale: float
    top: int  # the last cell
    first: np.ndarray
    bpad: np.ndarray
    passes: int
    heavy: np.ndarray | None  # flags the heavy cells, None when there are none

    @classmethod
    def build(cls, b: np.ndarray) -> _BucketGrid | None:
        """The grid over sorted finite boundaries b, or None where a grid cannot beat the sorted search.

        That is so with one boundary or a span whose scale overflows, and
        where heavy cells hold over _GRID_MAX_HEAVY_SHARE of the boundaries.
        """
        cells = _GRID_CELLS_PER_BOUNDARY * b.size
        b0 = float(b[0])
        scale = cells / (float(b[-1]) - b0) if b.size > 1 else math.inf
        if not (0 < scale < math.inf):
            return None
        per_cell = np.bincount(_cells(b, b0, scale, cells - 1), minlength=cells)
        heavy = per_cell > _GRID_MAX_PASSES
        if per_cell[heavy].sum() > _GRID_MAX_HEAVY_SHARE * b.size:
            return None
        first = np.zeros(cells, dtype=np.intp)
        np.cumsum(per_cell[:-1], out=first[1:])
        return cls(
            b0,
            scale,
            cells - 1,
            first,
            np.append(b, np.inf),
            int(per_cell[~heavy].max()),
            heavy if heavy.any() else None,
        )

    def locate(self, b: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """np.searchsorted(b, xs, side="right") on 1-d float64 xs below +inf."""
        cell = _cells(xs, self.b0, self.scale, self.top)
        k = self.first[cell]
        bpad = self.bpad
        for _ in range(self.passes):
            k += bpad[k] <= xs
        if self.heavy is not None:
            crowded = self.heavy[cell]
            if crowded.any():
                k[crowded] = _sorted_search(b, xs[crowded])
        return k


def _cells(xs: np.ndarray, b0: float, scale: float, top: int) -> np.ndarray:
    """trunc(clip((x - b0) * scale, 0, top)) in float64; the same operations place boundaries and queries."""
    with np.errstate(over="ignore"):  # an overflow gives +-inf, which the clip sends to an end cell
        t = xs - b0
        t *= scale
    np.clip(t, 0, top, out=t)
    return t.astype(np.intp)


def build_slab_structure(inputs: Sequence[InputSet]) -> SlabStructure:
    """Build slabs from k training inputs: every k-th order statistic of the pooled x-values.

    Requires k >= ceil(log2 n) so that, under a product distribution, the
    expected number of fresh points falling in one slab stays O(1) with a
    bounded second moment.  Duplicate boundary values are merged.
    """
    if not inputs:
        raise ValueError("need at least one training input")
    n = inputs[0].n
    if any(inp.n != n for inp in inputs):
        raise ValueError("training inputs must all have the same size")
    k = len(inputs)
    need = max(1, math.ceil(math.log2(n)))
    if k < need:
        raise ValueError(f"need at least ceil(log2 n)={need} training inputs, got {k}")
    pooled = np.sort(np.concatenate([inp.xs for inp in inputs]))
    picks = pooled[0 : n * k : k]  # positions 0, k, 2k, ..., (n-1)k
    return SlabStructure(np.unique(picks))


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for the training phase.

    epsilon trades space for limiting-phase optimality (more rounds, bigger
    trees); delta is the accuracy slack in the frequency estimates (both an
    int or a float, not a bool); rounds_cap (an int) bounds the round count
    regardless.  Frozen, since a trained model keeps the config it was
    trained with.
    """

    epsilon: float = 0.5
    delta: float = 0.5
    rounds_cap: int = 10_000

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int or a float, got {value!r}")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if type(self.rounds_cap) is not int:  # a bool or a numpy integer would fail later, or not save
            raise ValueError(f"rounds_cap must be an int, got {self.rounds_cap!r}")
        if self.rounds_cap < 1:
            raise ValueError("rounds_cap must be >= 1")

    def slab_rounds(self, n: int) -> int:
        return max(1, math.ceil(math.log2(n)))

    def tree_rounds(self, n: int) -> int:
        raw = self.delta**-2 * n**self.epsilon * self.slab_rounds(n)
        return min(math.ceil(raw), self.rounds_cap)

    def leaf_threshold(self, n: int) -> int:
        return 5 * self.slab_rounds(n)


@dataclass
class FrequencyTable:
    """Per-position leaf-slab hit counts over a fixed number of training rounds."""

    counts: np.ndarray  # shape (n, num_slabs), unsigned ints
    rounds: int


def collect_frequencies(spec: ScenarioSpec, slabs: SlabStructure, rounds: int, rng: SeededRng) -> FrequencyTable:
    """Sample `rounds` fresh inputs and count leaf-slab hits per position.

    The rounds come in blocks of at most _BLOCK_POINTS points, and at least
    one round.  sample_xs draws a block's x values as successive sample_input
    calls would, so the table and the stream's next draw are theirs; a
    non-finite value raises InputSet's error.  The slabs' bucket grid
    locates the whole block at once, and each round's hits land through the
    table's flat view at row * num_slabs + slab.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n, num_slabs = spec.n, slabs.num_slabs
    dtype = np.uint16 if rounds <= np.iinfo(np.uint16).max else np.uint32
    counts = np.zeros((n, num_slabs), dtype=dtype)
    flat = counts.reshape(-1)
    row_start = np.arange(n) * num_slabs
    block = max(1, _BLOCK_POINTS // n)
    for done in range(0, rounds, block):
        xs = sample_xs(spec, rng, min(block, rounds - done))
        if not np.isfinite(xs).all():
            raise ValueError("coordinates must be finite")
        keys = slabs.locate_array(xs)
        keys += row_start
        for round_keys in keys:
            # one hit per row per round, so the keys are unique and a plain fancy-index increment is safe
            flat[round_keys] += 1
        del xs, keys  # so the next block's draw does not hold this block's arrays as well
    return FrequencyTable(counts=counts, rounds=rounds)


def _children(lo: np.ndarray, hi: np.ndarray, split: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slab intervals of one level's children, in level order: parent order, left child before right.

    kept flags, in two slots per node, whether its left and its right child
    exist; lo and hi are the intervals of the children that do.
    """
    inner = split >= 0
    kept = np.column_stack((inner & (split > lo), inner & (split < hi))).ravel()
    return kept, np.column_stack((lo, split + 1)).ravel()[kept], np.column_stack((split - 1, hi)).ravel()[kept]


class SearchForest:
    """The partial weighted-median search trees of all n positions, in flat int32 columns.

    The trees are stored together in level order: node i is position i's
    root, then come all depth-1 nodes in parent order (left child before
    right), then all depth-2 nodes, and so on.  split >= 0 marks an internal
    node that compares against that slab (equal locates, smaller goes left,
    larger goes right), and -1 marks a node that is not expanded.  A root
    covers all slabs and a child the slabs on its side of the split, so node
    intervals follow from the parent and are not stored.  right[j] is the
    slot of node j's right child: its left child, if any, is node
    right[j] - 1 and its right child, if any, node right[j]; -1 when j is
    not expanded.  An unexpanded node over one slab is a located leaf, over
    more a fallback region resolved by bisection.  Subtrees whose training
    mass fell below the leaf threshold are not expanded, which is what keeps
    total space near-linear.
    """

    __slots__ = ("num_slabs", "n", "split", "right")

    def __init__(self, num_slabs: int, n: int, splits):
        """Decode the level-order split list of n trees, -1 for each node that is not expanded.

        splits is a sequence of ints or their native int32 bytes.  The list
        decodes only if every split is -1 or lies inside its node's interval,
        so that every search step shrinks the slab interval, and if it ends
        with its last level.  Raises ValueError otherwise.
        """
        try:
            self.split = array("i", splits)
        except (TypeError, OverflowError):
            raise ValueError("search forest splits must be int32 values") from None
        split = np.frombuffer(self.split, dtype=np.intc)
        inner = split != -1
        self._decode(num_slabs, n, inner, split[inner], slack=0)

    @classmethod
    def from_columns(cls, num_slabs: int, n: int, bitmap: np.ndarray, splits: np.ndarray) -> "SearchForest":
        """Decode a model file's forest: which nodes split, and their splits.

        bitmap packs one bit per node in level order, set where the node
        splits, with its pad bits zero; splits holds the split nodes' splits
        in the same order.  Besides the list checks of __init__, the bitmap
        must mark exactly len(splits) nodes and be ceil(nodes / 8) bytes.  The
        decoder reads nothing past the two columns and allocates one int32
        split and right per bitmap bit.
        """
        inner = np.unpackbits(bitmap).view(bool)
        marked = np.count_nonzero(inner)
        if marked != splits.size:
            raise ValueError(f"forest.bitmap marks {marked} split nodes, but forest.splits holds {splits.size} splits")
        forest = cls.__new__(cls)
        forest.split = array("i", [-1]) * inner.size
        forest._decode(num_slabs, n, inner, splits, slack=7)
        return forest

    def _decode(self, num_slabs: int, n: int, inner: np.ndarray, values: np.ndarray, slack: int) -> None:
        """Fill split and right one level at a time, touching only each level's split nodes.

        inner flags the split nodes in level order and values holds their
        splits; inner may run up to `slack` entries past the last level,
        which must be clear.  split starts as len(inner) entries of -1 (or
        the list itself) and is cut to the node count at the end.
        """
        self.num_slabs, self.n = num_slabs, n
        self.right = array("i", [-1]) * inner.size
        split, right = np.frombuffer(self.split, dtype=np.intc), np.frombuffer(self.right, dtype=np.intc)
        lo, hi = np.zeros(n, dtype=np.intc), np.full(n, num_slabs - 1, dtype=np.intc)
        start, end, done, depth = 0, n, 0, 0  # done: splits decoded so far
        while start < end:  # a child's interval is narrower than its parent's, so there are at most num_slabs levels
            if end > inner.size:
                raise ValueError(f"search forest splits end inside level {depth}")
            level = inner[start:end]
            s = values[done : done + np.count_nonzero(level)].astype(np.intc)
            done += s.size
            if s.size < level.size:  # a partly split level: keep the intervals of its split nodes only
                j = np.flatnonzero(level)
                lo, hi = lo[j], hi[j]
            else:
                j = slice(None)
            bad = np.flatnonzero((s < lo) | (s > hi))
            if bad.size:
                b = bad[0]
                node = start + np.flatnonzero(level)[b]
                raise ValueError(f"search forest node {node} has a split outside its interval [{lo[b]}, {hi[b]}]: {s[b]}")
            split[start:end][j] = s
            # split node k's children, in level order: [lo, s - 1] if s > lo, then [s + 1, hi] if s < hi
            kept = np.empty((s.size, 2), dtype=bool)
            np.greater(s, lo, out=kept[:, 0])
            np.less(s, hi, out=kept[:, 1])
            both = kept.all()
            if both:  # two children each, so split node k's right child is node end + 2k + 1
                right[start:end][j] = np.arange(end + 1, end + 2 * s.size, 2, dtype=np.intc)
                children = 2 * s.size
            else:
                below = np.add(kept[:, 0], kept[:, 1], dtype=np.intc)
                np.cumsum(below, out=below)  # the children of split nodes 0..k
                right[start:end][j] = end + below - kept[:, 1]
                children = int(below[-1]) if below.size else 0
            if inner[end : end + children].any():
                child_lo, child_hi = np.empty((s.size, 2), dtype=np.intc), np.empty((s.size, 2), dtype=np.intc)
                child_lo[:, 0], child_hi[:, 1] = lo, hi
                np.add(s, 1, out=child_lo[:, 1])
                np.subtract(s, 1, out=child_hi[:, 0])
                lo, hi = child_lo.ravel(), child_hi.ravel()
                if not both:
                    lo, hi = lo[kept.ravel()], hi[kept.ravel()]
            else:  # the next level is all leaves (or runs past the bitmap), so no interval of it is read
                lo = hi = np.empty(0, dtype=np.intc)
            start, end, depth = end, end + children, depth + 1
        del split, right  # release the buffers, so the arrays can be cut
        if done != values.size:
            raise ValueError(f"search forest splits go on past its last level: {values.size - done} more")
        if inner.size - end > slack:
            if slack:
                raise ValueError(f"forest.bitmap is {inner.size // 8} bytes, but the {end} nodes it describes need {-(-end // 8)}")
            raise ValueError(f"search forest splits go on past its last level: {inner.size - end} more")
        if end < inner.size:
            del self.split[end:], self.right[end:]


def build_search_tree(freq: FrequencyTable, leaf_threshold: int) -> array:
    """The level-order split list (see SearchForest) of every position's partial search tree.

    A node splits at its weighted median slab: the smallest slab index at
    which the prefix mass reaches half the node's mass.  Both children then
    carry at most half the parent's mass, so every non-split child is
    2/3-reducing by construction.  Intervals whose mass is below
    leaf_threshold stay unexpanded fallback regions.  Rows go in blocks of
    at most 2**16 cells, and a block's trees grow one depth at a time: one
    searchsorted over the block's flattened prefix sums finds every median.
    """
    if leaf_threshold < 1:
        raise ValueError("leaf_threshold must be >= 1")
    n, num_slabs = freq.counts.shape
    levels: list[list[np.ndarray]] = []  # levels[d] holds each block's depth-d splits
    step = max(1, 2**16 // num_slabs)
    for first in range(0, n, step):
        block = freq.counts[first : first + step]
        prefix = np.zeros(block.size + 1, dtype=np.int64)
        np.cumsum(block.ravel(), out=prefix[1:])
        # one entry per node of the current depth: prefix[base + k] is the mass of the block before slab k of the node's row
        base = np.arange(block.shape[0], dtype=np.int64) * num_slabs
        lo, hi = np.zeros(base.size, dtype=np.intc), np.full(base.size, num_slabs - 1, dtype=np.intc)
        depth = 0
        while base.size:
            below = prefix[base + lo]
            count = prefix[base + hi + 1] - below
            inner = (lo < hi) & (count >= leaf_threshold)
            split = np.full(base.size, -1, dtype=np.intc)
            split[inner] = np.searchsorted(prefix, below[inner] + (count[inner] + 1) // 2) - base[inner] - 1
            if depth == len(levels):
                levels.append([])
            levels[depth].append(split)
            kept, lo, hi = _children(lo, hi, split)
            base = base[np.flatnonzero(kept) // 2]
            depth += 1
    pieces = [s for level in levels for s in level]
    splits = array("i", [0]) * sum(s.size for s in pieces)
    np.concatenate(pieces, out=np.frombuffer(splits, dtype=np.intc))  # in place, so training's peak holds one copy of the splits, not three
    return splits


class ForestAudit(NamedTuple):
    """Per-tree arrays: node counts, worst-case search steps (tree edges plus bisection probes) and mu-reducing verdicts."""

    nodes: np.ndarray
    steps: np.ndarray
    reducing: np.ndarray


def audit_forest(forest: SearchForest, freq: FrequencyTable, mu: float) -> ForestAudit:
    """Audit all n trees against their training counts, one numpy pass per depth.

    A tree is mu-reducing iff each child subtree of each internal node,
    expanded or a fallback region, carries at most mu times its parent's
    mass; the split slab is a completed search, not a subproblem, so it is
    exempt.  A search ends at an internal node's split slab, or bisects an
    unexpanded node's interval.  Rows go in blocks of at most 2**20 cells,
    each with its own prefix sums, so no (n, num_slabs) prefix is built.
    """
    n, num_slabs = forest.n, forest.num_slabs
    if freq.counts.shape != (n, num_slabs):
        raise ValueError(f"frequency table has shape {freq.counts.shape}, the forest needs {(n, num_slabs)}")
    split, right = np.frombuffer(forest.split, dtype=np.intc), np.frombuffer(forest.right, dtype=np.intc)
    audit = ForestAudit(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.intc), np.ones(n, dtype=bool))  # steps in frexp's int32, so maximum.at need not cast
    step = max(1, 2**20 // num_slabs)
    for first in range(0, n, step):
        block = freq.counts[first : first + step]
        prefix = np.zeros(block.size + 1, dtype=np.int64)
        np.cumsum(block.ravel(), out=prefix[1:])
        nodes, steps, reducing = (a[first : first + block.shape[0]] for a in audit)
        # one entry per node of the current depth: its slot, and its tree's row in the block
        ids, row = np.arange(first, first + block.shape[0]), np.arange(block.shape[0])
        lo, hi = np.zeros(row.size, dtype=np.intc), np.full(row.size, num_slabs - 1, dtype=np.intc)
        depth = 0
        while ids.size:
            s = split[ids]
            inner = s >= 0
            nodes += np.bincount(row, minlength=nodes.size)
            # bisecting hi - lo + 1 slabs takes ceil(log2(hi - lo + 1)) probes: the bit length of hi - lo, frexp's exponent
            np.maximum.at(steps, row, np.where(inner, depth + 1, depth + np.frexp(hi - lo)[1]))
            j = np.flatnonzero(inner)
            base, sj = row[j] * num_slabs, s[j]
            below, top = prefix[base + lo[j]], prefix[base + hi[j] + 1]
            heavier = np.maximum(prefix[base + sj] - below, top - prefix[base + sj + 1])
            reducing[row[j[heavier > mu * (top - below)]]] = False
            kept, lo, hi = _children(lo, hi, s)
            k = np.flatnonzero(kept)  # two slots per node: its left child, then its right
            ids, row, depth = right[ids[k // 2]] - 1 + k % 2, row[k // 2], depth + 1
    return audit


def search_steps_to_leaf(forest: SearchForest, i: int, leaf: int, interval: tuple[int, int] | None) -> int:
    """Steps a search in tree i for `leaf` takes; stops early once its current
    interval fits inside `interval` (inclusive slab index pair), or at the
    exact leaf when interval is None."""
    if not 0 <= i < forest.n:
        raise ValueError(f"tree {i} out of range for {forest.n} trees")
    if not 0 <= leaf < forest.num_slabs:
        raise ValueError(f"leaf {leaf} out of range")
    if interval is not None:
        ilo, ihi = interval
        if not (0 <= ilo <= ihi < forest.num_slabs):
            raise ValueError(f"bad interval {interval!r}")
        if not ilo <= leaf <= ihi:
            raise ValueError(f"leaf {leaf} outside interval {interval!r}")
    steps, nid, lo, hi = 0, i, 0, forest.num_slabs - 1
    while lo < hi and not (interval is not None and interval[0] <= lo and hi <= interval[1]):
        steps += 1
        s = forest.split[nid]
        if s < 0:  # an unexpanded node: bisect what is left of its interval
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if leaf <= mid else (mid + 1, hi)
        elif leaf == s:
            break
        else:
            nid, lo, hi = (forest.right[nid] - 1, lo, s - 1) if leaf < s else (forest.right[nid], s + 1, hi)
    return steps


def simulate_restricted_search(
    forest: SearchForest,
    i: int,
    interval: tuple[int, int] | None,
    weights,
    trials: int,
    rng: SeededRng,
) -> float:
    """Mean step count in tree i over `trials` searches for leaves drawn from `weights`.

    weights is a nonnegative vector over all leaf slabs with positive total
    mass; when interval is given the support must lie inside it.  interval
    None means every search descends to its exact leaf slab.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (forest.num_slabs,):
        raise ValueError(f"weights must have length {forest.num_slabs}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    if interval is not None:
        ilo, ihi = interval
        if not (0 <= ilo <= ihi < forest.num_slabs):
            raise ValueError(f"bad interval {interval!r}")
        outside = np.flatnonzero(w)
        if outside.size and (outside[0] < ilo or outside[-1] > ihi):
            raise ValueError("weights have support outside the interval")
    leaves = rng.generator.choice(forest.num_slabs, size=trials, p=w / total)
    total_steps = 0
    for leaf in leaves:
        total_steps += search_steps_to_leaf(forest, i, int(leaf), interval)
    return total_steps / trials


# ---------------------------------------------------------------------------
# trained model


@dataclass(frozen=True)
class TrainedModel:
    """Everything the limiting phase needs, plus the (config, seed) that replays it.

    Training is a pure function of (scenario, config, seed), so those three
    are the model's whole provenance; round counts and the leaf threshold
    follow from them.  Construction checks that the seed is an int in the
    stream's range and that the forest holds n trees over the model's slabs
    (decoding already made each tree sound).  The frequency table the trees
    came from is not kept; an audit collects it again from the same stream.
    A model is frozen, so the engine's spine table, built on its first run,
    stays valid for its life; a variant made by dataclasses.replace starts
    without one.
    """

    scenario: ScenarioSpec
    slabs: SlabStructure
    forest: SearchForest
    config: TrainingConfig
    seed: int
    entropy_per_point: np.ndarray

    def __post_init__(self):
        if type(self.seed) is not int:  # SeededRng takes a numpy integer, which the file's JSON header would not
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        SeededRng(self.seed)  # the stream's own 64-bit seed check
        if np.shape(self.entropy_per_point) != (self.n,):
            raise ValueError(f"entropy_per_point has shape {np.shape(self.entropy_per_point)}, expected ({self.n},)")
        h = np.asarray(self.entropy_per_point)
        if not (np.isfinite(h) & (h >= 0)).all():
            raise ValueError("entropy_per_point must be finite and >= 0")
        if self.forest.num_slabs != self.slabs.num_slabs:
            raise ValueError(f"search forest is over {self.forest.num_slabs} slabs, model has {self.slabs.num_slabs}")
        if self.forest.n != self.n:
            raise ValueError(f"search forest has {self.forest.n} trees for n={self.n}")

    @property
    def n(self) -> int:
        return self.scenario.n

    @property
    def entropy_total(self) -> float:
        return float(self.entropy_per_point.sum())

    def total_nodes(self) -> int:
        return len(self.forest.split)

    @cached_property
    def _spine(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each position's right spine (engine._spine_table), built on the model's first run."""
        return engine._spine_table(self)

    def to_bytes(self) -> bytes:
        """The model file: a JSON header line with the replay key and each column's dtype and count, then the columns' bytes.

        The columns' little-endian bytes follow the header's newline in the
        order the header lists them, with nothing between or after them.
        """
        columns = []

        def column(values, dtype: str) -> dict:
            columns.append(np.ascontiguousarray(values, dtype=dtype))
            return {"dtype": dtype, "count": columns[-1].size}

        split = np.frombuffer(self.forest.split, dtype=np.intc)
        inner = split >= 0
        # a dict display evaluates in key order, so the columns are appended in the header's document order
        header = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "seed": self.seed,
            "epsilon": float(self.config.epsilon),  # a float whatever the config holds, so retraining a loaded model saves the same bytes
            "delta": float(self.config.delta),
            "rounds_cap": self.config.rounds_cap,
            "scenario": {
                "name": self.scenario.name,
                "n": self.n,
                **{k: column(v, SCENARIO_COLUMNS[k]) for k, v in self.scenario.columns.items()},
            },
            "boundaries": column(self.slabs.boundaries, "<f8"),
            # which nodes split, one bit each in level order, and the splits of those nodes
            "forest": {
                "bitmap": column(np.packbits(inner), "<u1"),
                "splits": column(split[inner], "<u2" if self.slabs.num_slabs <= _SPLIT_U2_MAX_SLABS else "<i4"),
            },
            "entropy_per_point": column(self.entropy_per_point, "<f8"),
        }
        return b"".join([json.dumps(header, separators=(",", ":")).encode("ascii"), b"\n", *columns])

    @classmethod
    def from_bytes(cls, data: bytes) -> "TrainedModel":
        """Decode and check a model file as to_bytes writes it; raises ValueError naming what is wrong."""
        end = data.find(b"\n")
        try:
            header = json.loads((data[:end] if end >= 0 else data).decode("utf-8"))
        except UnicodeDecodeError as e:
            raise ValueError(f"model file header is not valid UTF-8: {e}") from None
        except json.JSONDecodeError as e:
            raise ValueError(f"model file header is not valid JSON: {e}") from None
        except RecursionError:
            raise ValueError("model file header is nested too deeply to be read") from None
        if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
            raise ValueError("not a model file (bad or missing format tag)")
        if header.get("version") != MODEL_VERSION:
            raise ValueError(f"model file version {header.get('version')!r} is not read (only version {MODEL_VERSION}); retrain the model")
        if end < 0:
            raise ValueError("model file has no newline after its header line")
        columns = _read_columns(header, memoryview(data)[end + 1 :])
        try:
            slabs = SlabStructure(columns["boundaries"].copy())  # a copy, so the model keeps no view of the file
            scenario = _read_scenario(header["scenario"], columns)
            return cls(
                scenario=scenario,
                slabs=slabs,
                forest=_read_forest(header["forest"], columns, slabs.num_slabs, scenario.n),
                config=TrainingConfig(epsilon=header["epsilon"], delta=header["delta"], rounds_cap=header["rounds_cap"]),  # checks their types
                seed=header["seed"],
                entropy_per_point=columns["entropy_per_point"].astype(np.float64),
            )
        except KeyError as e:
            raise ValueError(f"missing model field {e}") from None
        except TypeError as e:
            raise ValueError(f"malformed model file: {e}") from None


# the model file's column fields, nested as in its header, with the dtypes each may have
_COLUMN_DTYPES = {
    "scenario": {k: (dtype,) for k, dtype in SCENARIO_COLUMNS.items()},
    "boundaries": ("<f8",),
    "forest": {"bitmap": ("<u1",), "splits": ("<u2", "<i4")},
    "entropy_per_point": ("<f8",),
}


def _column_fields(obj: dict, schema: dict, prefix: str = ""):
    """(dotted name, allowed dtypes, value) of each column field in obj, in document order."""
    for key, value in obj.items():
        dtypes = schema.get(key)
        if isinstance(dtypes, dict):
            if isinstance(value, dict):  # otherwise the field's reader reports it
                yield from _column_fields(value, dtypes, f"{prefix}{key}.")
        elif dtypes is not None:
            yield f"{prefix}{key}", dtypes, value


def _read_columns(header: dict, payload: memoryview) -> dict[str, np.ndarray]:
    """Every column field in the header by its dotted name, as a read-only view of its bytes in payload.

    The columns take payload in the header's document order and must cover
    it exactly.  A missing column is left out, for its reader to report.
    """
    columns, offset = {}, 0
    for name, dtypes, value in _column_fields(header, _COLUMN_DTYPES):
        if not isinstance(value, dict) or value.get("dtype") not in dtypes:
            shown = f"dtype {value.get('dtype')!r}" if isinstance(value, dict) else type(value).__name__
            raise ValueError(f"{name} must be an object with dtype {' or '.join(dtypes)} and a count, got {shown}")
        count, dtype = value.get("count"), np.dtype(value["dtype"])
        if type(count) is not int or count < 0:
            raise ValueError(f"{name} count must be an integer >= 0, got {count!r}")
        if count * dtype.itemsize > len(payload) - offset:
            raise ValueError(f"model file ends inside column {name}: {count} x {value['dtype']} from byte {offset} of a {len(payload)}-byte payload")
        columns[name] = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        offset += count * dtype.itemsize
    if offset != len(payload):
        raise ValueError(f"model file has {len(payload) - offset} bytes past its last column")
    return columns


def _read_scenario(obj, columns: dict[str, np.ndarray]) -> ScenarioSpec:
    """The scenario field: its name, its n, and one column per SCENARIO_COLUMNS entry, checked by ScenarioSpec."""
    if not isinstance(obj, dict):
        raise ValueError(f"scenario must be an object, got {type(obj).__name__}")
    try:
        name, n = obj["name"], obj["n"]
    except KeyError as e:
        raise ValueError(f"missing model field 'scenario.{e.args[0]}'") from None
    spec = ScenarioSpec(name, **{k: columns[f"scenario.{k}"] for k in SCENARIO_COLUMNS})  # a missing column's KeyError names it
    if type(n) is not int or n != spec.n:
        raise ValueError(f"scenario.n must be the integer {spec.n}, the length of scenario.kind, got {n!r}")
    return spec


def _read_forest(obj, columns: dict[str, np.ndarray], num_slabs: int, n: int) -> SearchForest:
    """The forest field: its bitmap and splits columns, decoded as n trees over num_slabs slabs."""
    if not isinstance(obj, dict):
        raise ValueError(f"forest must be an object, got {type(obj).__name__}")
    return SearchForest.from_columns(num_slabs, n, columns["forest.bitmap"], columns["forest.splits"])  # a missing column's KeyError names it


def train_model(
    spec: ScenarioSpec,
    config: TrainingConfig | None = None,
    seed: int = 0,
) -> TrainedModel:
    """Run the whole training phase for one scenario.

    Consumes a single seeded stream in a fixed order: first slab_rounds(n)
    inputs for the slab structure, then tree_rounds(n) inputs for the
    frequency table, which builds the trees and entropies and is then
    dropped.  The result is a pure function of (spec, config, seed).
    """
    config = config or TrainingConfig()
    n = spec.n
    rng = SeededRng(seed)
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(config.slab_rounds(n))])
    freq = collect_frequencies(spec, slabs, config.tree_rounds(n), rng)
    splits = build_search_tree(freq, config.leaf_threshold(n))
    entropy = engine.entropy_proxy(freq)
    del freq  # free the n x num_slabs table before the forest is decoded, so the two never coexist
    return TrainedModel(
        scenario=spec,
        slabs=slabs,
        forest=SearchForest(slabs.num_slabs, n, splits),
        config=config,
        seed=int(seed),
        entropy_per_point=entropy,
    )


def save_model(model: TrainedModel, path) -> None:
    """Write model's file to path through a sibling temporary file, so a failure leaves an existing file as it was."""
    data = model.to_bytes()
    tmp = f"{os.fsdecode(path)}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:  # the mode a plain open gives, which a tempfile's 0600 would not
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        return TrainedModel.from_bytes(fh.read())
