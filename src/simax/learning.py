"""Training: slab structure, per-point frequencies, and partial search trees.

Training draws a small number of inputs to build a global slab decomposition
of the x-axis, then estimates where each input position tends to land and
compiles one weighted-median search tree per position.  Tree size adapts to
each position's empirical entropy; regions a position rarely visits are left
to a plain binary search fallback, which caps total space.
"""

from __future__ import annotations

import base64
import json
import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .distributions import ScenarioSpec, SeededRng, sample_input, scenario_from_dict, scenario_to_dict
from .geometry import InputSet

MODEL_FORMAT = "simax-model"
MODEL_VERSION = 7
# the forest column's dtype: uint16 (65535 for -1) while every split fits below 65535, int32 above
_SPLIT_U2_MAX_SLABS = 65535


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

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_slabs(self) -> int:
        return int(self.counts.shape[1])


def collect_frequencies(spec: ScenarioSpec, slabs: SlabStructure, rounds: int, rng: SeededRng) -> FrequencyTable:
    """Sample `rounds` fresh inputs and count leaf-slab hits per position.

    Each round's x values are located in sorted order, which keeps the
    binary searches' branches predictable, and each hit lands through the
    table's flat view at row * num_slabs + slab.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n, num_slabs = spec.n, slabs.num_slabs
    dtype = np.uint16 if rounds <= np.iinfo(np.uint16).max else np.uint32
    counts = np.zeros((n, num_slabs), dtype=dtype)
    flat = counts.reshape(-1)
    row_start = np.arange(n) * num_slabs
    for _ in range(rounds):
        xs = sample_input(spec, rng).xs
        order = np.argsort(xs)
        # one hit per row per round, so the keys are unique and a plain fancy-index increment is safe
        flat[row_start[order] + slabs.locate_array(xs[order])] += 1
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
        """Decode the level-order split list of n trees, one numpy pass per depth.

        splits is a sequence of ints or their native int32 bytes.  The list
        decodes only if every split is -1 or lies inside its node's interval,
        so that every search step shrinks the slab interval, and if it ends
        with its last level.  Raises ValueError otherwise.
        """
        try:
            self.split = array("i", splits)
        except (TypeError, OverflowError):
            raise ValueError("search forest splits must be int32 values") from None
        self.num_slabs, self.n = num_slabs, n
        self.right = array("i", [-1]) * len(self.split)
        split, right = np.frombuffer(self.split, dtype=np.intc), np.frombuffer(self.right, dtype=np.intc)
        lo, hi = np.zeros(n, dtype=np.intc), np.full(n, num_slabs - 1, dtype=np.intc)
        start, end, depth = 0, n, 0
        while start < end:  # a child's interval is narrower than its parent's, so there are at most num_slabs levels
            if end > split.size:
                raise ValueError(f"search forest splits end inside level {depth}")
            s = split[start:end]
            bad = np.flatnonzero((s != -1) & ((s < lo) | (s > hi)))
            if bad.size:
                j = bad[0]
                raise ValueError(f"search forest node {start + j} has a split outside its interval [{lo[j]}, {hi[j]}]: {s[j]}")
            kept, lo, hi = _children(lo, hi, s)
            right[start:end] = np.where(s >= 0, end + np.cumsum(kept, dtype=np.intc)[::2], -1)
            start, end, depth = end, end + lo.size, depth + 1
        if end != split.size:
            raise ValueError(f"search forest splits go on past its last level: {split.size - end} more")

    def walk(self, i: int):
        """Yield (node, lo, hi, depth) for every node of tree i, in preorder down from root i."""
        if not 0 <= i < self.n:
            raise ValueError(f"tree {i} out of range for {self.n} trees")
        split, right = self.split, self.right
        pending = [(i, 0, self.num_slabs - 1, 0)]
        while pending:
            nid, lo, hi, depth = pending.pop()
            yield nid, lo, hi, depth
            s = split[nid]
            if s >= 0:
                if s < hi:
                    pending.append((right[nid], s + 1, hi, depth + 1))
                if s > lo:
                    pending.append((right[nid] - 1, lo, s - 1, depth + 1))

    def node_count(self, i: int) -> int:
        return sum(1 for _ in self.walk(i))

    def intervals(self, i: int) -> list[tuple[int, int]]:
        """The inclusive slab interval (lo, hi) of every node of tree i, in preorder."""
        return [(lo, hi) for _, lo, hi, _ in self.walk(i)]

    def max_search_steps(self, i: int) -> int:
        """Worst-case steps to locate any leaf slab in tree i (tree edges + bisection probes)."""
        # a search ends at an internal node's split slab with that node's step, or at a fallback node after bisecting
        return max(d + (1 if self.split[nid] >= 0 else math.ceil(math.log2(hi - lo + 1))) for nid, lo, hi, d in self.walk(i))


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

    for nid, lo, hi, _ in forest.walk(i):
        s = forest.split[nid]
        if s >= 0 and max(mass(lo, s - 1), mass(s + 1, hi)) > mu * mass(lo, hi):
            return False
    return True


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
    steps = 0
    nid, lo, hi = i, 0, forest.num_slabs - 1
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
        nid, lo, hi = (forest.right[nid] - 1, lo, s - 1) if leaf < s else (forest.right[nid], s + 1, hi)
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
    """Everything the limiting phase needs, plus the (config, seed) that replays it.

    Training is a pure function of (scenario, config, seed), so those three
    are the model's whole provenance; round counts and the leaf threshold
    follow from them.  Construction checks that the forest holds n trees
    over the model's slabs (decoding already made each tree sound).
    frequencies is kept only when training is asked to retain it (for audits
    of the trees against their training counts); it is never serialized.
    """

    scenario: ScenarioSpec
    slabs: SlabStructure
    forest: SearchForest
    config: TrainingConfig
    seed: int
    entropy_per_point: np.ndarray
    frequencies: FrequencyTable | None = None

    def __post_init__(self):
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

    def to_dict(self) -> dict:
        """The model-file object: the replay key and scenario as JSON, and every array as a column (see _column)."""
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "seed": self.seed,
            "epsilon": float(self.config.epsilon),  # as from_dict reads it, so a retrained model saves the same bytes
            "delta": float(self.config.delta),
            "rounds_cap": self.config.rounds_cap,
            "scenario": scenario_to_dict(self.scenario),
            "boundaries": _column(self.slabs.boundaries, "<f8"),
            "forest": _column(self.forest.split, "<u2" if self.slabs.num_slabs <= _SPLIT_U2_MAX_SLABS else "<i4"),
            "entropy_per_point": _column(self.entropy_per_point, "<f8"),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainedModel":
        if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
            raise ValueError("not a model file (bad or missing format tag)")
        if obj.get("version") != MODEL_VERSION:
            raise ValueError(f"model file version {obj.get('version')!r} is not read (only version {MODEL_VERSION}); retrain the model")
        try:
            slabs = SlabStructure(_read_column(obj, "boundaries", ("<f8",)))
            scenario = scenario_from_dict(obj["scenario"])
            return cls(
                scenario=scenario,
                slabs=slabs,
                forest=SearchForest(slabs.num_slabs, scenario.n, _split_bytes(obj, slabs.num_slabs)),
                config=TrainingConfig(
                    epsilon=_json_number(obj, "epsilon"),
                    delta=_json_number(obj, "delta"),
                    rounds_cap=obj["rounds_cap"],
                ),
                seed=_json_number(obj, "seed", integer=True),
                entropy_per_point=_read_column(obj, "entropy_per_point", ("<f8",)).astype(np.float64),
            )
        except KeyError as e:
            raise ValueError(f"missing model field {e}") from None
        except TypeError as e:
            raise ValueError(f"malformed model file: {e}") from None


def _json_number(obj: dict, name: str, integer: bool = False):
    """obj[name] if it is a JSON integer, or with integer=False any JSON number as a float (a bool is neither)."""
    value = obj[name]
    if type(value) not in ((int,) if integer else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def _column(values, dtype: str) -> dict:
    """A numeric column as a model-file field: its little-endian bytes in base64."""
    data = np.asarray(values).astype(dtype, copy=False).tobytes()  # to "<u2", -1 wraps to 65535
    return {"dtype": dtype, "data": base64.b64encode(data).decode("ascii")}


def _read_column(obj: dict, name: str, dtypes: tuple[str, ...]) -> np.ndarray:
    """The read-only array a column field written by _column holds, if its dtype is one of dtypes."""
    value = obj[name]
    if not isinstance(value, dict) or value.get("dtype") not in dtypes or not isinstance(value.get("data"), str):
        shown = f"dtype {value.get('dtype')!r}" if isinstance(value, dict) else type(value).__name__
        raise ValueError(f"{name} must be an object with dtype {' or '.join(dtypes)} and base64 data, got {shown}")
    try:
        data = base64.b64decode(value["data"], validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{name} data is not valid base64") from None
    dtype = np.dtype(value["dtype"])
    if len(data) % dtype.itemsize:
        raise ValueError(f"{name} data is {len(data)} bytes, not a multiple of {value['dtype']}'s {dtype.itemsize}")
    return np.frombuffer(data, dtype=dtype)


def _split_bytes(obj: dict, num_slabs: int) -> bytes:
    """The forest column widened to native int32 bytes for SearchForest, with 65535 in a uint16 column read as -1."""
    column = _read_column(obj, "forest", ("<u2", "<i4"))
    splits = column.astype(np.intc)
    if column.dtype.itemsize == 2:
        if num_slabs > _SPLIT_U2_MAX_SLABS:
            raise ValueError(f"forest dtype <u2 cannot hold the splits of a model with {num_slabs} slabs")
        splits[column == 65535] = -1
    return splits.tobytes()


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
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(config.slab_rounds(n))])
    freq = collect_frequencies(spec, slabs, config.tree_rounds(n), rng)
    splits = build_search_tree(freq, config.leaf_threshold(n))
    entropy = engine.entropy_proxy(freq)
    if not keep_frequencies:
        freq = None  # free the n x num_slabs table before the forest is decoded, so the two never coexist
    return TrainedModel(
        scenario=spec,
        slabs=slabs,
        forest=SearchForest(slabs.num_slabs, n, splits),
        config=config,
        seed=int(seed),
        entropy_per_point=entropy,
        frequencies=freq,
    )


def save_model(model: TrainedModel, path) -> None:
    text = json.dumps(model.to_dict(), separators=(",", ":")) + "\n"  # before opening, so a failure leaves the old file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"model file is not valid JSON: {e}") from None
        except RecursionError:
            raise ValueError("model file is nested too deeply to be read") from None
    return TrainedModel.from_dict(obj)
