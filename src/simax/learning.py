"""Training: slab structure, per-point frequencies, and partial search trees.

Training draws a small number of inputs to build a global slab decomposition
of the x-axis, then estimates where each input position tends to land and
compiles one weighted-median search tree per position.  Tree size adapts to
each position's empirical entropy; regions a position rarely visits are left
to a plain binary search fallback, which caps total space.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import ScenarioSpec, SeededRng, sample_input, scenario_from_dict, scenario_to_dict
from .geometry import InputSet

MODEL_FORMAT = "simax-model"
MODEL_VERSION = 3


class SlabStructure:
    """Partition of the x-axis into half-open slabs between sorted boundaries.

    With boundaries b_0 < ... < b_{m-1} the leaf slabs are
    (-inf, b_0), [b_0, b_1), ..., [b_{m-1}, +inf), indexed 0..m.  A boundary
    value belongs to the slab on its right.
    """

    __slots__ = ("boundaries", "_blist")

    def __init__(self, boundaries):
        b = np.asarray(boundaries, dtype=np.float64)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("boundaries must be a nonempty 1-d array")
        if not np.isfinite(b).all():
            raise ValueError("boundaries must be finite")
        if not (np.diff(b) > 0).all():
            raise ValueError("boundaries must be strictly increasing")
        self.boundaries = b
        self._blist = [float(v) for v in b]  # plain floats for hot loops

    @property
    def num_slabs(self) -> int:
        return self.boundaries.size + 1

    def locate(self, x: float) -> int:
        return int(np.searchsorted(self.boundaries, x, side="right"))

    def locate_array(self, xs) -> np.ndarray:
        return np.searchsorted(self.boundaries, xs, side="right")

    def boundary_list(self) -> list[float]:
        return self._blist

    def __repr__(self) -> str:
        return f"SlabStructure(num_slabs={self.num_slabs})"


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


@dataclass
class TrainingConfig:
    """Knobs for the training phase.

    epsilon trades space for limiting-phase optimality (more rounds, bigger
    trees); delta is the accuracy slack in the frequency estimates; c_rounds
    scales the round count; rounds_cap bounds it regardless.
    """

    epsilon: float = 0.5
    delta: float = 0.5
    c_rounds: float = 1.0
    rounds_cap: int = 10_000

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.c_rounds <= 0:
            raise ValueError("c_rounds must be positive")
        if self.rounds_cap < 1:
            raise ValueError("rounds_cap must be >= 1")

    def slab_rounds(self, n: int) -> int:
        return max(1, math.ceil(math.log2(n)))

    def tree_rounds(self, n: int) -> int:
        raw = self.c_rounds * self.delta**-2 * n**self.epsilon * self.slab_rounds(n)
        return min(math.ceil(raw), self.rounds_cap)

    def leaf_threshold(self, n: int) -> int:
        return 5 * self.slab_rounds(n)


@dataclass
class FrequencyTable:
    """Per-position leaf-slab hit counts over a fixed number of training rounds."""

    counts: np.ndarray  # shape (n, num_slabs), unsigned ints
    rounds: int

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_slabs(self) -> int:
        return int(self.counts.shape[1])


def collect_frequencies(spec: ScenarioSpec, slabs: SlabStructure, rounds: int, rng: SeededRng) -> FrequencyTable:
    """Sample `rounds` fresh inputs and count leaf-slab hits per position."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = spec.n
    dtype = np.uint16 if rounds <= np.iinfo(np.uint16).max else np.uint32
    counts = np.zeros((n, slabs.num_slabs), dtype=dtype)
    rows = np.arange(n)
    for _ in range(rounds):
        inp = sample_input(spec, rng)
        # one hit per row per round, so plain fancy-index increment is safe
        counts[rows, slabs.locate_array(inp.xs)] += 1
    return FrequencyTable(counts=counts, rounds=rounds)


class SearchForest:
    """The partial weighted-median search trees of all n positions, in flat int32 columns.

    A tree is stored as its preorder split sequence: split >= 0 marks an
    internal node that compares against that slab (equal locates, smaller
    goes left, larger goes right), and -1 marks a node that is not expanded.
    A root covers all slabs and a child the slabs on its side of the split,
    so node intervals follow from the path and are not stored.  A left child
    is the node after its parent; right[j] is node j's right child, -1 if
    none.  An unexpanded node over one slab is a located leaf, over more a
    fallback region resolved by bisection.  Position i owns nodes
    offsets[i] .. offsets[i+1]-1, rooted at offsets[i].  Subtrees whose
    training mass fell below the leaf threshold are not expanded, which is
    what keeps total space near-linear.
    """

    __slots__ = ("num_slabs", "split", "right", "offsets")

    def __init__(self, num_slabs: int, splits=()):
        self.num_slabs = num_slabs
        self.split, self.right = array("i"), array("i")
        self.offsets = array("i", [0])
        self.extend(splits)

    def extend(self, splits) -> None:
        """Append the trees whose preorder split sequences are concatenated in splits.

        A sequence decodes only if every split lies inside its node's
        interval and the last tree is complete; then every search step
        shrinks the slab interval.  Raises ValueError, leaving the forest as
        it was, otherwise.
        """
        try:
            splits = array("i", splits)
        except (TypeError, OverflowError):
            raise ValueError("search forest splits must be int32 values") from None
        top = self.num_slabs - 1
        right, offsets = self.right, self.offsets
        start = len(right)
        add_right = right.append
        pending = []  # (node whose right child it is or -1 for a left child, lo, hi) of subtrees still to decode, next on top
        push, pop = pending.append, pending.pop
        parent, lo, hi = -1, 0, top
        try:
            for nid, s in enumerate(splits, start):
                if parent >= 0:
                    right[parent] = nid
                add_right(-1)
                if s != -1:
                    if not lo <= s <= hi:
                        raise ValueError(f"search forest node {nid} has a split outside its interval [{lo}, {hi}]: {s}")
                    if s < hi:
                        push((nid, s + 1, hi))
                    if s > lo:
                        push((-1, lo, s - 1))
                if pending:
                    parent, lo, hi = pop()
                else:
                    offsets.append(nid + 1)
                    parent, lo, hi = -1, 0, top
            if offsets[-1] != len(right):
                raise ValueError(f"search forest splits end inside tree {len(offsets) - 1}")
            self.split.extend(splits)
        except ValueError:
            del right[start:]
            del offsets[bisect_right(offsets, start) :]
            raise

    def node_count(self, i: int) -> int:
        return self.offsets[i + 1] - self.offsets[i]

    def intervals(self, i: int) -> list[tuple[int, int]]:
        """The inclusive slab interval (lo, hi) of every node of tree i, in node order."""
        out, pending = [], [(0, self.num_slabs - 1)]
        for nid in range(self.offsets[i], self.offsets[i + 1]):
            lo, hi = pending.pop()
            out.append((lo, hi))
            s = self.split[nid]
            if s >= 0:
                if s < hi:
                    pending.append((s + 1, hi))
                if s > lo:
                    pending.append((lo, s - 1))
        return out

    def max_search_steps(self, i: int) -> int:
        """Worst-case steps to locate any leaf slab in tree i (tree edges + bisection probes)."""

        def rec(nid: int, lo: int, hi: int) -> int:
            s = self.split[nid]
            if s < 0:
                return math.ceil(math.log2(hi - lo + 1))
            # locating at the split slab costs this step alone
            return 1 + max(rec(nid + 1, lo, s - 1) if s > lo else 0, rec(self.right[nid], s + 1, hi) if s < hi else 0)

        return rec(self.offsets[i], 0, self.num_slabs - 1)


def build_search_tree(freq: FrequencyTable, i: int, leaf_threshold: int, forest: SearchForest | None = None) -> SearchForest:
    """Append the partial search tree for position i, compiled from its frequency row, to forest.

    Trees go in position order, so forest must hold trees 0..i-1; a new
    forest is started when none is given.  Splits at the weighted median
    slab: the smallest slab index at which the prefix mass reaches half the
    node's mass.  Both children then carry at most half the parent's mass,
    so every non-split child is 2/3-reducing by construction.  Intervals
    whose mass is below leaf_threshold stay unexpanded fallback regions.
    """
    if leaf_threshold < 1:
        raise ValueError("leaf_threshold must be >= 1")
    if forest is None:
        forest = SearchForest(freq.num_slabs)
    if len(forest.offsets) != i + 1:
        raise ValueError(f"forest holds {len(forest.offsets) - 1} trees, so tree {len(forest.offsets) - 1} comes next, not {i}")
    prefix = np.zeros(freq.num_slabs + 1, dtype=np.int64)
    np.cumsum(freq.counts[i], out=prefix[1:])
    prefix = memoryview(prefix)  # indexes and bisects as plain ints, with no list copy of the row
    splits: list[int] = []

    def build(lo: int, hi: int) -> None:
        count = prefix[hi + 1] - prefix[lo]
        if lo == hi or count < leaf_threshold:
            splits.append(-1)
            return
        lam = bisect_left(prefix, prefix[lo] + (count + 1) // 2, lo + 1, hi + 2) - 1
        splits.append(lam)
        if lam > lo:
            build(lo, lam - 1)
        if lam < hi:
            build(lam + 1, hi)

    build(0, freq.num_slabs - 1)
    forest.extend(splits)
    return forest


def check_mu_reducing(forest: SearchForest, i: int, freq: FrequencyTable, mu: float) -> bool:
    """True iff every child subtree of every internal node of tree i carries at most mu times its parent's mass.

    The split slab itself is a completed search, not a subproblem, so it is
    exempt; left and right children are checked whether they were expanded
    into internal nodes or left as fallback regions.
    """
    row = freq.counts[i]
    prefix = np.zeros(row.size + 1, dtype=np.int64)
    np.cumsum(row, out=prefix[1:])

    def mass(lo: int, hi: int) -> int:
        return int(prefix[hi + 1] - prefix[lo])

    for nid, (lo, hi) in enumerate(forest.intervals(i), forest.offsets[i]):
        s = forest.split[nid]
        if s >= 0 and max(mass(lo, s - 1), mass(s + 1, hi)) > mu * mass(lo, hi):
            return False
    return True


def search_steps_to_leaf(forest: SearchForest, i: int, leaf: int, interval: tuple[int, int] | None) -> int:
    """Steps a search in tree i for `leaf` takes; stops early once its current
    interval fits inside `interval` (inclusive slab index pair), or at the
    exact leaf when interval is None."""
    if not 0 <= leaf < forest.num_slabs:
        raise ValueError(f"leaf {leaf} out of range")
    if interval is not None:
        ilo, ihi = interval
        if not (0 <= ilo <= ihi < forest.num_slabs):
            raise ValueError(f"bad interval {interval!r}")
        if not ilo <= leaf <= ihi:
            raise ValueError(f"leaf {leaf} outside interval {interval!r}")
    steps = 0
    nid = forest.offsets[i]
    lo, hi = 0, forest.num_slabs - 1
    fallback = forest.split[nid] < 0
    while True:
        if interval is not None and interval[0] <= lo and hi <= interval[1]:
            return steps
        if lo == hi:
            return steps
        if fallback:
            steps += 1
            mid = (lo + hi) // 2
            if leaf <= mid:
                hi = mid
            else:
                lo = mid + 1
            continue
        s = forest.split[nid]
        steps += 1
        if leaf == s:
            lo = hi = s
            continue
        nid, lo, hi = (nid + 1, lo, s - 1) if leaf < s else (forest.right[nid], s + 1, hi)
        fallback = forest.split[nid] < 0


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


@dataclass
class TrainedModel:
    """Everything the limiting phase needs, plus provenance for replay.

    Construction checks that the forest holds n trees over the model's
    slabs; decoding already made each tree sound.  frequencies is kept only
    when training is asked to retain it (for audits of the trees against
    their training counts); it is never serialized.
    """

    scenario: ScenarioSpec
    slabs: SlabStructure
    forest: SearchForest
    epsilon: float
    delta: float
    seed: int
    slab_rounds: int
    tree_rounds: int
    leaf_threshold: int
    entropy_per_point: np.ndarray
    rng_algorithm: str = "pcg64"
    frequencies: FrequencyTable | None = None

    def __post_init__(self):
        if np.shape(self.entropy_per_point) != (self.n,):
            raise ValueError(f"entropy_per_point has shape {np.shape(self.entropy_per_point)}, expected ({self.n},)")
        if self.forest.num_slabs != self.slabs.num_slabs:
            raise ValueError(f"search forest is over {self.forest.num_slabs} slabs, model has {self.slabs.num_slabs}")
        if len(self.forest.offsets) != self.n + 1:
            raise ValueError(f"search forest has {len(self.forest.offsets) - 1} trees for n={self.n}")

    @property
    def n(self) -> int:
        return self.scenario.n

    @property
    def entropy_total(self) -> float:
        return float(self.entropy_per_point.sum())

    def total_nodes(self) -> int:
        return len(self.forest.split)

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "rng_algorithm": self.rng_algorithm,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "slab_rounds": self.slab_rounds,
            "tree_rounds": self.tree_rounds,
            "leaf_threshold": self.leaf_threshold,
            "scenario": scenario_to_dict(self.scenario),
            "boundaries": [float(b) for b in self.slabs.boundaries],
            "forest": self.forest.split.tolist(),
            "entropy_per_point": [float(h) for h in self.entropy_per_point],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainedModel":
        if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
            raise ValueError("not a model file (bad or missing format tag)")
        if obj.get("version") != MODEL_VERSION:
            raise ValueError(f"model file version {obj.get('version')!r} is not read (only version {MODEL_VERSION}); retrain the model")
        try:
            slabs = SlabStructure(obj["boundaries"])
            return cls(
                scenario=scenario_from_dict(obj["scenario"]),
                slabs=slabs,
                forest=SearchForest(slabs.num_slabs, obj["forest"]),
                epsilon=float(obj["epsilon"]),
                delta=float(obj["delta"]),
                seed=int(obj["seed"]),
                slab_rounds=int(obj["slab_rounds"]),
                tree_rounds=int(obj["tree_rounds"]),
                leaf_threshold=int(obj["leaf_threshold"]),
                entropy_per_point=np.asarray(obj["entropy_per_point"], dtype=np.float64),
                rng_algorithm=str(obj.get("rng_algorithm", "pcg64")),
            )
        except KeyError as e:
            raise ValueError(f"missing model field {e}") from None
        except TypeError as e:
            raise ValueError(f"malformed model file: {e}") from None


def train_model(
    spec: ScenarioSpec,
    config: TrainingConfig | None = None,
    seed: int = 0,
    keep_frequencies: bool = False,
) -> TrainedModel:
    """Run the whole training phase for one scenario.

    Consumes a single seeded stream in a fixed order: first slab_rounds(n)
    inputs for the slab structure, then tree_rounds(n) inputs for the
    frequency table.  The result is a pure function of (spec, config, seed).
    """
    config = config or TrainingConfig()
    n = spec.n
    rng = SeededRng(seed)
    k = config.slab_rounds(n)
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(k)])
    rounds = config.tree_rounds(n)
    freq = collect_frequencies(spec, slabs, rounds, rng)
    threshold = config.leaf_threshold(n)
    forest = SearchForest(slabs.num_slabs)
    for i in range(n):
        build_search_tree(freq, i, threshold, forest)
    from .engine import entropy_proxy  # deferred: engine imports this module's types

    return TrainedModel(
        scenario=spec,
        slabs=slabs,
        forest=forest,
        epsilon=config.epsilon,
        delta=config.delta,
        seed=int(seed),
        slab_rounds=k,
        tree_rounds=rounds,
        leaf_threshold=threshold,
        entropy_per_point=entropy_proxy(freq),
        frequencies=freq if keep_frequencies else None,
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model.to_dict(), separators=(",", ":")) + "\n")


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"model file is not valid JSON: {e}") from None
    return TrainedModel.from_dict(obj)
