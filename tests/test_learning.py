import base64
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_distributions import _mass, _mixture, _rect, _segment, _spec

from simax import (
    FrequencyTable,
    SearchForest,
    SlabStructure,
    TrainedModel,
    TrainingConfig,
    audit_forest,
    build_scenario,
    build_search_tree,
    build_slab_structure,
    collect_frequencies,
    entropy_proxy,
    learning,
    load_model,
    run_maxima,
    sample_input,
    save_model,
    simulate_restricted_search,
    train_model,
)
from simax.distributions import ScenarioSpec, SeededRng
from simax.geometry import InputSet, brute_force_maxima, check_certificate
from simax.learning import search_steps_to_leaf

# frozen structural constants; measured once on this implementation, then pinned
STORAGE_C = 4.0  # per-point node count <= STORAGE_C * n^eps (measured up to 2.82)
DEPTH_SLACK = 2  # depth <= (1 + 3*eps) * log2(num_slabs) + DEPTH_SLACK
FULL_SEARCH_C = 1.3  # mean full-search steps <= FULL_SEARCH_C * (H_i + 1) (worst seen 1.0)


# ---------------------------------------------------------------------------
# slab structure


def test_slab_structure_validation():
    with pytest.raises(ValueError, match="nonempty"):
        SlabStructure([])
    with pytest.raises(ValueError, match="increasing"):
        SlabStructure([1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        SlabStructure([0.0, np.inf])
    assert SlabStructure([1.0]).num_slabs == 2


def test_build_slab_structure_every_kth_order_statistic():
    # n=4, k=2, pooled x-values {0..7}: picks are positions 0,2,4,6
    a = InputSet([0, 2, 4, 6], [0, 0, 0, 0])
    b = InputSet([1, 3, 5, 7], [0, 0, 0, 0])
    slabs = build_slab_structure([a, b])
    assert slabs.boundary_list() == [0.0, 2.0, 4.0, 6.0]
    assert slabs.num_slabs == 5


def test_build_slab_structure_dedups_boundaries():
    a = InputSet([1, 1, 1, 1], [0, 0, 0, 0])
    b = InputSet([1, 1, 1, 1], [0, 0, 0, 0])
    slabs = build_slab_structure([a, b])
    assert slabs.boundary_list() == [1.0]
    assert slabs.num_slabs == 2


def test_build_slab_structure_input_checks():
    a = InputSet([0, 1, 2, 3], [0, 0, 0, 0])
    with pytest.raises(ValueError, match="at least one"):
        build_slab_structure([])
    with pytest.raises(ValueError, match="same size"):
        build_slab_structure([a, InputSet([0, 1], [0, 0])])
    # n=16 needs ceil(log2 16) = 4 training inputs
    big = [InputSet(np.arange(16.0), np.zeros(16)) for _ in range(3)]
    with pytest.raises(ValueError, match="at least"):
        build_slab_structure(big)


def test_boundary_count_never_exceeds_n():
    rng = SeededRng(7)
    spec = build_scenario("uniform_square", 32)
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(5)])
    assert len(slabs.boundary_list()) <= 32


def test_locate_half_open_rule():
    slabs = SlabStructure([1.0, 2.0])
    # a boundary value belongs to the right slab
    assert slabs.locate_array([0.5, 1.0, 5.0]).tolist() == [0, 1, 2]


@given(
    bounds=st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True),
    x=st.floats(-60, 60, allow_nan=False),
)
def test_locate_maps_every_x_to_exactly_one_slab(bounds, x):
    b = sorted(float(v) for v in bounds)
    slabs = SlabStructure(b)
    j = int(slabs.locate_array(x))
    assert 0 <= j < slabs.num_slabs
    if j > 0:
        assert b[j - 1] <= x
    if j < len(b):
        assert x < b[j]


def test_locate_array_matches_scalar_locate():
    slabs = SlabStructure([0.0, 0.5, 1.0])
    xs = np.array([-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0])
    got = slabs.locate_array(xs)
    assert [int(v) for v in got] == [bisect_right(slabs.boundary_list(), float(x)) for x in xs]


def _near(v):
    """v and its neighbours one float step either side."""
    return st.sampled_from([v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)])


@st.composite
def _boundaries_and_queries(draw):
    """Boundaries anywhere in float64, evenly spaced, and crowded into one cell; queries on, beside and between them."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    spread = draw(st.lists(finite, max_size=4))
    centre = draw(st.floats(-1e6, 1e6))
    even = centre + draw(st.floats(1e-3, 1e3)) * np.arange(-40, draw(st.integers(-39, 40)))
    step = draw(st.sampled_from([1e-300, 1e-12, 1e-6]))
    # 5 to 10 crowded among up to 80 even ones keep a grid with one heavy cell; more crowded ones leave no grid
    crowd = centre + step * np.arange(draw(st.integers(0, 40) | st.integers(5, 10)))
    b = np.unique(np.concatenate((spread, even, crowd)))
    queries = st.one_of(st.floats(), st.sampled_from(b.tolist()).flatmap(_near))
    return b, np.array(draw(st.lists(queries, max_size=60)), dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(case=_boundaries_and_queries())
def test_locate_array_equals_searchsorted(case):
    b, xs = case
    got = SlabStructure(b).locate_array(xs)
    want = np.searchsorted(b, xs, side="right")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "boundaries, grid",
    [
        ([0.5], False),  # one boundary: no span to divide
        ([-1e308, 0.0, 1e308], False),  # the span overflows to inf
        ([0.0, 5e-324, 1e-323], False),  # a subnormal span: the scale overflows
        ([-1e-300, -5e-324, 0.0, 5e-324, 1e-310, 1e-300], True),  # subnormal boundaries in a normal span
        (np.concatenate((np.linspace(0.0, 1.0, 60), 0.5 + 1e-12 * np.arange(1, 6))), True),  # a cell over the pass cap
        (np.concatenate((np.linspace(0.0, 1.0, 20), 0.5 + 1e-12 * np.arange(1, 40))), False),  # most boundaries crowded
        (np.linspace(-1e307, 1e307, 1000), True),
    ],
    ids=["one", "huge-span", "subnormal-span", "subnormal-values", "heavy-cell", "crowded", "wide"],
)
def test_locate_array_equals_searchsorted_at_the_edges(boundaries, grid):
    slabs = SlabStructure(np.unique(boundaries))
    b = slabs.boundaries
    xs = np.concatenate(
        (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), [-np.inf, np.inf, -0.0, 0.0, -1e308, 1e308, 5e-324])
    )
    got = slabs.locate_array(xs)
    assert np.array_equal(got, np.searchsorted(b, xs, side="right"))
    assert bool(slabs._grid) == grid
    if grid:
        assert slabs._grid.passes <= learning._GRID_MAX_PASSES
    # NaN sorts after every boundary, as in searchsorted
    assert slabs.locate_array(np.append(xs, np.nan)).tolist() == got.tolist() + [b.size]


@pytest.mark.parametrize(
    "xs",
    [1.0, 1.5, 7, np.float64(-3.0), np.nan, [0.5, 1.0, 5.0], [3, 0, 1], np.array([[0.0, 2.0], [1.0, 9.0]]),
     np.array([[1, 2], [3, 0]]), np.array(2.0), np.array([], dtype=np.float64), np.float32([1.0, 2.5]),
     np.longdouble([1.0, 2.0])],
    ids=["float", "float-between", "int", "float64", "nan", "list", "int-list", "2d", "2d-int", "0d", "empty",
         "float32", "longdouble"],
)
def test_locate_array_keeps_searchsorted_types_and_shapes(xs):
    slabs = SlabStructure(np.linspace(-1.0, 3.0, 9))
    got = slabs.locate_array(xs)
    want = np.searchsorted(slabs.boundaries, xs, side="right")
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def test_slab_grid_is_built_by_the_first_locate_only(tmp_path, model_cache, monkeypatch):
    builds = []
    build = learning._BucketGrid.build
    monkeypatch.setattr(learning._BucketGrid, "build", staticmethod(lambda b: builds.append(1) or build(b)))
    save_model(model_cache("uniform_square", 64), tmp_path / "model.json")  # training may build grids
    builds.clear()
    slabs = SlabStructure([0.0, 1.0, 2.0])
    loaded = load_model(tmp_path / "model.json")
    assert builds == [] and slabs._grid is None and loaded.slabs._grid is None
    slabs.locate_array([0.5, 1.5])
    loaded.slabs.locate_array(np.zeros(3))
    loaded.slabs.locate_array(np.ones(3))
    assert len(builds) == 2 and slabs._grid and loaded.slabs._grid


# ---------------------------------------------------------------------------
# training config and frequencies


def test_training_config_budgets():
    cfg = TrainingConfig()
    assert cfg.slab_rounds(1024) == 10
    # delta^-2 * n^eps * ceil(log2 n) = 4 * 32 * 10
    assert cfg.tree_rounds(1024) == 1280
    assert cfg.leaf_threshold(1024) == 50
    capped = TrainingConfig(rounds_cap=100)
    assert capped.tree_rounds(1024) == 100


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        TrainingConfig(delta=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(rounds_cap=0)


@pytest.mark.parametrize("cap", [True, np.int64(50), 50.0, 4.7, "10000"], ids=["bool", "int64", "50.0", "4.7", "str"])
def test_training_config_rejects_a_rounds_cap_that_is_not_an_int(cap):
    # checked at construction, since each would otherwise fail only later: in training, in save_model or in load_model
    with pytest.raises(ValueError, match="rounds_cap must be an int"):
        TrainingConfig(rounds_cap=cap)


@pytest.mark.parametrize(
    "field, value",
    [("epsilon", "0.5"), ("delta", None), ("epsilon", True), ("delta", False), ("epsilon", np.int64(1)), ("delta", [0.5])],
    ids=["epsilon-str", "delta-None", "epsilon-True", "delta-False", "epsilon-int64", "delta-list"],
)
def test_training_config_rejects_epsilon_and_delta_that_are_not_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an int or a float"):
        TrainingConfig(**{field: value})


def test_training_config_accepts_int_and_float_epsilon_and_delta():
    assert TrainingConfig(epsilon=1, delta=0.25).tree_rounds(16) == 16 * 16 * 4
    assert TrainingConfig(epsilon=np.float64(0.5)).epsilon == 0.5  # a float subclass


def _collect_frequencies_reference(spec, slabs, rounds, rng):
    """The plain per-round 2-D scatter: each round locates its xs in position order with np.searchsorted."""
    counts = np.zeros((spec.n, slabs.num_slabs), dtype=np.uint16 if rounds <= 65535 else np.uint32)
    rows = np.arange(spec.n)
    for _ in range(rounds):
        counts[rows, np.searchsorted(slabs.boundaries, sample_input(spec, rng).xs, side="right")] += 1
    return counts


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_collect_frequencies_matches_the_plain_scatter(kind, n):
    # rounds are drawn in blocks of B = _BLOCK_POINTS // n; one round, one short of a block, one block, one over and a
    # ragged last block must count as the per-round draws do, and leave the stream where those draws would
    spec = build_scenario(kind, n)
    rng = SeededRng(5)
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(TrainingConfig().slab_rounds(n))])
    B = learning._BLOCK_POINTS // n
    for rounds in (1, B - 1, B, B + 1, 2 * B + 3):
        rng, ref = SeededRng(6), SeededRng(6)
        got = collect_frequencies(spec, slabs, rounds, rng)
        want = _collect_frequencies_reference(spec, slabs, rounds, ref)
        assert got.rounds == rounds and got.counts.dtype == want.dtype
        assert np.array_equal(got.counts, want)
        assert rng.random() == ref.random()


def test_collect_frequencies_rejects_a_non_finite_draw(monkeypatch):
    # sample_xs does not check its values, so the block is checked as InputSet checks one input
    spec = build_scenario("uniform_square", 8)
    real = learning.sample_xs

    def poisoned(spec, rng, rounds):
        xs = real(spec, rng, rounds)
        xs[-1, 3] = np.nan
        return xs

    monkeypatch.setattr(learning, "sample_xs", poisoned)
    with pytest.raises(ValueError, match="^coordinates must be finite$"):
        collect_frequencies(spec, SlabStructure([0.25, 0.5]), 3, SeededRng(1))


@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_collect_frequencies_holds_at_most_a_mebibyte_besides_its_table(kind):
    # the bound was set before measuring; a block of 2**14 points keeps a few block-sized arrays live
    # (0.70-0.76 MiB here, against 0.15-0.20 MiB for one round at a time), which stays under
    # build_search_tree's later peak, so train_model's peak does not move
    n = 2048
    spec = build_scenario(kind, n)
    config, rng = TrainingConfig(), SeededRng(1)
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(config.slab_rounds(n))])
    tracemalloc.start()
    try:
        freq = collect_frequencies(spec, slabs, config.tree_rounds(n), rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - freq.counts.nbytes <= 2**20


def test_collect_frequencies_matches_the_plain_scatter_on_boundaries():
    # draws exactly on boundaries, -0.0 against the 0.0 boundary, and x values shared by several positions
    slabs = SlabStructure([-1.0, 0.0, 0.5, 2.0])
    spec = _spec(
        "boundaries",
        (
            _mass(-0.0, 0.0),
            _mass(0.0, 1.0),
            _mass(0.5, 0.0),
            _mass(0.5, 3.0),
            _mixture(((-1.0, 0.0), (2.0, 0.0), (-0.0, 1.0)), (0.25, 0.25, 0.5)),
            _mixture(((0.0, 2.0), (0.5, 1.0)), (0.5, 0.5)),
            _segment(-1.0, 0.0, 2.0, 0.0),
            _rect(0.5, 0.5, 0.0, 1.0),
        ),
    )
    got = collect_frequencies(spec, slabs, 40, SeededRng(7)).counts
    want = _collect_frequencies_reference(spec, slabs, 40, SeededRng(7))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got[0].tolist() == got[1].tolist() == [0, 0, 40, 0, 0]  # -0.0 is 0.0, and a boundary belongs to its right slab
    assert got[2].tolist() == got[3].tolist() == got[7].tolist() == [0, 0, 0, 40, 0]


def test_collect_frequencies_conserves_rounds():
    spec = build_scenario("two_level", 8)
    slabs = SlabStructure([0.5, 1.0, 1.5])
    freq = collect_frequencies(spec, slabs, rounds=37, rng=SeededRng(3))
    assert freq.counts.shape == (8, 4)
    assert (freq.counts.sum(axis=1) == 37).all()
    with pytest.raises(ValueError, match="rounds"):
        collect_frequencies(spec, slabs, rounds=0, rng=SeededRng(3))


def test_point_mass_concentrates_on_one_slab():
    spec = ScenarioSpec("fixed", kind=[0, 0], mass_x=[0.7, 2.5], mass_y=[0.0, 0.0])
    slabs = SlabStructure([1.0, 2.0])
    freq = collect_frequencies(spec, slabs, rounds=11, rng=SeededRng(0))
    assert freq.counts[0].tolist() == [11, 0, 0]
    assert freq.counts[1].tolist() == [0, 0, 11]


def test_row_zero_frequencies_are_loosely_balanced(training_table):
    # frozen-seed measurement: the first position's interior counts stay
    # within 3x of the interior mean (min counts can be 0 at this budget,
    # so max/min is not a usable yardstick)
    freq = training_table("uniform_square", 64)
    interior = freq.counts[0][1:-1].astype(float)
    assert interior.max() <= 3.0 * interior.mean()


# ---------------------------------------------------------------------------
# search tree construction


def _build_forest(freq: FrequencyTable, leaf_threshold: int) -> SearchForest:
    n, num_slabs = freq.counts.shape
    return SearchForest(num_slabs, n, build_search_tree(freq, leaf_threshold))


def _preorder_reference(row, leaf_threshold: int) -> list[int]:
    """One row's weighted-median tree as a preorder split list, built by recursion as model version 3 stored it."""
    prefix = [0]
    for c in row:
        prefix.append(prefix[-1] + int(c))
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

    build(0, len(row) - 1)
    return splits


def _walk(forest: SearchForest, i: int):
    """Yield (node, lo, hi, depth) for every node of tree i, in preorder down from root i, one node at a time."""
    split, right = forest.split, forest.right
    pending = [(i, 0, forest.num_slabs - 1, 0)]
    while pending:
        nid, lo, hi, depth = pending.pop()
        yield nid, lo, hi, depth
        s = split[nid]
        if s >= 0:
            if s < hi:
                pending.append((right[nid], s + 1, hi, depth + 1))
            if s > lo:
                pending.append((right[nid] - 1, lo, s - 1, depth + 1))


def _preorder(forest: SearchForest, i: int) -> list[int]:
    return [forest.split[nid] for nid, *_ in _walk(forest, i)]


def _intervals(forest: SearchForest, i: int) -> list[tuple[int, int]]:
    return [(lo, hi) for _, lo, hi, _ in _walk(forest, i)]


def _walk_audit(forest: SearchForest, freq: FrequencyTable, mu: float) -> list[tuple[int, int, bool]]:
    """audit_forest's (nodes, steps, reducing) for every tree, from the preorder walk and Python ints."""
    audits = []
    for i in range(forest.n):
        prefix = [0]
        for c in freq.counts[i]:
            prefix.append(prefix[-1] + int(c))
        nodes = steps = 0
        reducing = True
        for nid, lo, hi, depth in _walk(forest, i):
            s = forest.split[nid]
            nodes += 1
            steps = max(steps, depth + (1 if s >= 0 else math.ceil(math.log2(hi - lo + 1))))
            if s >= 0 and max(prefix[s] - prefix[lo], prefix[hi + 1] - prefix[s + 1]) > mu * (prefix[hi + 1] - prefix[lo]):
                reducing = False
        audits.append((nodes, steps, reducing))
    return audits


def _audit(forest: SearchForest, freq: FrequencyTable, mu: float) -> list[tuple[int, int, bool]]:
    a = audit_forest(forest, freq, mu)
    return list(zip(a.nodes.tolist(), a.steps.tolist(), a.reducing.tolist()))


def test_weighted_median_split_example():
    freq = FrequencyTable(counts=np.array([[4, 4, 8]], dtype=np.uint16), rounds=16)
    forest = _build_forest(freq, leaf_threshold=1)
    assert forest.split[0] == 1
    assert audit_forest(forest, freq, mu=2 / 3).nodes.tolist() == [3]
    assert forest.right[0] == 2  # the right child's slot; the left child, node 1, sits just before it
    assert _intervals(forest, 0) == [(0, 2), (0, 0), (2, 2)]
    assert audit_forest(forest, freq, mu=2 / 3).reducing.tolist() == [True]


def test_split_picks_smallest_majority_slab():
    # prefix reaches half the mass (5) already at slab 0
    freq = FrequencyTable(counts=np.array([[6, 1, 3]], dtype=np.uint16), rounds=10)
    forest = _build_forest(freq, leaf_threshold=1)
    assert forest.split[0] == 0
    # heavy tail on the right: slab 2 holds the weighted median
    freq2 = FrequencyTable(counts=np.array([[1, 1, 8]], dtype=np.uint16), rounds=10)
    forest2 = _build_forest(freq2, leaf_threshold=1)
    assert forest2.split[0] == 2


def test_low_mass_region_stays_fallback():
    freq = FrequencyTable(counts=np.array([[1, 1, 1]], dtype=np.uint16), rounds=3)
    forest = _build_forest(freq, leaf_threshold=5)
    assert audit_forest(forest, freq, mu=2 / 3).nodes.tolist() == [1]
    assert forest.split.tolist() == [-1]
    assert _intervals(forest, 0) == [(0, 2)]


def test_uniform_counts_give_logarithmic_depth():
    freq = FrequencyTable(counts=np.ones((1, 256), dtype=np.uint16), rounds=256)
    forest = _build_forest(freq, leaf_threshold=1)
    assert audit_forest(forest, freq, mu=2 / 3).steps[0] <= 9  # median split halves the mass every level


def test_build_search_tree_rejects_bad_threshold():
    freq = FrequencyTable(counts=np.ones((1, 4), dtype=np.uint16), rounds=4)
    with pytest.raises(ValueError, match="leaf_threshold"):
        build_search_tree(freq, leaf_threshold=0)


@given(
    counts=st.lists(st.integers(0, 30), min_size=2, max_size=20),
    threshold=st.integers(1, 20),
)
def test_built_trees_are_always_two_thirds_reducing(counts, threshold):
    freq = FrequencyTable(counts=np.array([counts], dtype=np.uint16), rounds=max(1, sum(counts)))
    forest = _build_forest(freq, threshold)
    assert audit_forest(forest, freq, mu=2 / 3).reducing.all()
    # children partition the parent slab minus the split leaf; the left child sits just before the right-child slot
    intervals = {nid: (lo, hi) for nid, lo, hi, _ in _walk(forest, 0)}
    assert sorted(intervals) == list(range(len(forest.split)))
    for nid, (lo, hi) in intervals.items():
        s = forest.split[nid]
        if s < 0:
            assert forest.right[nid] == -1
            continue
        covered = []
        if s > lo:
            covered.extend(range(intervals[forest.right[nid] - 1][0], intervals[forest.right[nid] - 1][1] + 1))
        covered.append(s)
        if s < hi:
            rlo, rhi = intervals[forest.right[nid]]
            covered.extend(range(rlo, rhi + 1))
        assert covered == list(range(lo, hi + 1))


@given(
    rows=st.lists(st.lists(st.integers(0, 30), min_size=6, max_size=6), min_size=1, max_size=4),
    threshold=st.integers(1, 20),
)
def test_built_forest_decodes_from_its_splits_alone(rows, threshold):
    freq = FrequencyTable(counts=np.array(rows, dtype=np.uint16), rounds=30)
    forest = _build_forest(freq, threshold)
    # level order: node ids run through depth 0, then depth 1, ..., and tree by tree within a depth
    order = sorted((nid, depth, i) for i in range(len(rows)) for nid, _, _, depth in _walk(forest, i))
    assert [nid for nid, _, _ in order] == list(range(len(forest.split)))
    assert [(depth, i) for _, depth, i in order] == sorted((depth, i) for _, depth, i in order)
    assert all(next(_walk(forest, i))[0] == i for i in range(len(rows)))  # root i is node i


def _tables(max_rows: int = 5, max_slabs: int = 12):
    """Frequency rows over 1..max_slabs slabs, some of them all zero."""
    return st.integers(1, max_slabs).flatmap(
        lambda k: st.lists(st.one_of(st.just([0] * k), st.lists(st.integers(0, 30), min_size=k, max_size=k)), min_size=1, max_size=max_rows)
    )


@given(rows=_tables(), threshold=st.integers(1, 20))
def test_level_order_forest_matches_the_preorder_reference(rows, threshold):
    freq = FrequencyTable(counts=np.array(rows, dtype=np.uint16), rounds=30)
    forest = _build_forest(freq, threshold)
    for i, row in enumerate(rows):
        assert _preorder(forest, i) == _preorder_reference(row, threshold)


def test_trees_spanning_several_row_blocks_match_the_reference():
    counts = np.random.default_rng(5).integers(0, 40, size=(600, 300), dtype=np.uint16)  # 218 rows to a 2**16-cell block
    freq = FrequencyTable(counts=counts, rounds=40)
    forest = _build_forest(freq, leaf_threshold=50)
    assert all(_preorder(forest, i) == _preorder_reference(counts[i], 50) for i in range(counts.shape[0]))


# sha256 of each conftest model's (n=256, seed 101, eps 0.5) splits, tree by tree in preorder: version 3's forest list
PREORDER_SPLITS_SHA256 = {
    "staircase_line": (4351, "da33af2a10c90975ecd1552574c9bf1d068b2a3959ac6a3fc25b58b1fb7f57d2"),
    "two_level": (1278, "001ac22cb75be291ffd2686c5ea4deeebbe1c3edae8a63811c6ec15f4eb54abb"),
    "uniform_square": (7936, "1a1dd1910238163da5ec805969a4d2c03b51276472999d010119adbe639f74b5"),
}


@pytest.mark.parametrize("kind", sorted(PREORDER_SPLITS_SHA256))
def test_trees_survive_the_level_order_format(model_cache, kind):
    model = model_cache(kind, 256)
    splits = [s for i in range(model.n) for s in _preorder(model.forest, i)]
    digest = hashlib.sha256(json.dumps(splits, separators=(",", ":")).encode()).hexdigest()
    assert (len(splits), digest) == PREORDER_SPLITS_SHA256[kind]


def test_search_forest_decodes_level_order_splits():
    forest = SearchForest(4, 2, [1, -1, -1, -1])  # root 0 splits at 1; root 1 is bare; then root 0's left leaf [0, 0] and right fallback [2, 3]
    assert _intervals(forest, 0) == [(0, 3), (0, 0), (2, 3)] and _intervals(forest, 1) == [(0, 3)]
    assert forest.right.tolist() == [3, -1, -1, -1]
    empty = FrequencyTable(counts=np.zeros((2, 4), dtype=np.uint16), rounds=1)
    assert forest.n == 2 and audit_forest(forest, empty, mu=2 / 3).nodes.tolist() == [3, 1]


@pytest.mark.parametrize(
    "n, splits, message",
    [
        (1, [-1, 2, 3], "past its last level: 2 more"),  # one bare tree and two stray nodes
        (1, [1, -1, 4], "node 2 has a split outside its interval \\[2, 3\\]: 4"),
        (1, [2, -1], "end inside level 1"),  # the root's right child is missing
        (1, [1, -1, 3], "end inside level 2"),  # node 2 splits at its top slab, so it has a left child
        (2, [3], "end inside level 0"),
        (1, [0.5], "splits must be int32 values"),
        (1, ["1"], "splits must be int32 values"),
        (1, [None], "splits must be int32 values"),
    ],
    ids=["stray nodes", "split outside", "no right child", "no left child", "no root", "float", "string", "None"],
)
def test_search_forest_rejects_malformed_splits(n, splits, message):
    with pytest.raises(ValueError, match=message):
        SearchForest(4, n, splits)


@st.composite
def _level_order_forests(draw, max_nodes: int = 120):
    """(num_slabs, n, splits): a valid level-order split list whose nodes split or not at random, so levels are mixed."""
    num_slabs, n = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    splits, pending = [], deque([(0, num_slabs - 1)] * n)
    while pending:
        lo, hi = pending.popleft()
        if len(splits) + len(pending) < max_nodes and draw(st.booleans()):
            s = draw(st.integers(lo, hi))
            pending.extend(child for child in ((lo, s - 1), (s + 1, hi)) if child[0] <= child[1])
        else:
            s = -1
        splits.append(s)
    return num_slabs, n, splits


def _reference_right(num_slabs: int, n: int, splits: list) -> list:
    """right for a level-order split list, one node at a time with a queue of the intervals still to come."""
    pending, right, slots = deque([(0, num_slabs - 1)] * n), [], n
    for s in splits:
        lo, hi = pending.popleft()
        if s < 0:
            right.append(-1)
            continue
        if s > lo:
            pending.append((lo, s - 1))
            slots += 1
        right.append(slots)  # the right child's slot, whether or not it exists; the left child sits just before it
        if s < hi:
            pending.append((s + 1, hi))
            slots += 1
    assert not pending
    return right


@given(forest=_level_order_forests())
def test_forest_columns_decode_like_a_reference(forest):
    num_slabs, n, splits = forest
    column = np.array(splits)
    inner = column >= 0
    from_file = SearchForest.from_columns(num_slabs, n, np.packbits(inner), column[inner].astype("<u2"))
    from_list = SearchForest(num_slabs, n, splits)
    assert from_file.split.tolist() == from_list.split.tolist() == splits
    assert from_file.right.tolist() == from_list.right.tolist() == _reference_right(num_slabs, n, splits)


def test_check_mu_reducing_flags_handmade_violation():
    # child holds 9 of the parent's 10: far above 2/3
    freq = FrequencyTable(counts=np.array([[9, 0, 1]], dtype=np.uint16), rounds=10)
    forest = SearchForest(3, 1, [1, -1, -1])
    assert audit_forest(forest, freq, mu=2 / 3).reducing.tolist() == [False]
    assert audit_forest(forest, freq, mu=0.95).reducing.tolist() == [True]
    with pytest.raises(ValueError, match=r"frequency table has shape \(2, 3\), the forest needs \(1, 3\)"):
        audit_forest(forest, FrequencyTable(counts=np.zeros((2, 3), dtype=np.uint16), rounds=1), mu=2 / 3)


def test_single_node_tree_is_vacuously_reducing():
    freq = FrequencyTable(counts=np.array([[5]], dtype=np.uint16), rounds=5)
    forest = _build_forest(freq, leaf_threshold=10)
    assert audit_forest(forest, freq, mu=2 / 3).reducing.tolist() == [True]


@given(rows=_tables(), threshold=st.integers(1, 20))
def test_audit_matches_the_preorder_walk(rows, threshold):
    freq = FrequencyTable(counts=np.array(rows, dtype=np.uint16), rounds=30)
    forest = _build_forest(freq, threshold)
    mirrored = FrequencyTable(counts=freq.counts[:, ::-1], rounds=30)  # masses the trees were not built from, so some fail
    for table in (freq, mirrored):
        for mu in (2 / 3, 0.45):
            assert _audit(forest, table, mu) == _walk_audit(forest, table, mu)


def test_split_moved_off_its_weighted_median_is_flagged():
    freq = FrequencyTable(counts=np.array([[0] * 6, [5] * 6], dtype=np.uint16), rounds=30)
    built = _build_forest(freq, leaf_threshold=20)  # row 1's root splits at its weighted median, slab 2; both children stay fallback
    assert built.split.tolist() == [-1, 2, -1, -1]
    assert _audit(built, freq, 2 / 3) == _walk_audit(built, freq, 2 / 3) == [(1, 3, True), (3, 3, True)]
    moved = SearchForest(6, 2, [-1, 0, -1])  # split at slab 0 instead: its right child carries 25 of 30
    assert _audit(moved, freq, 2 / 3) == _walk_audit(moved, freq, 2 / 3) == [(1, 3, True), (2, 4, False)]


@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_audit_matches_the_preorder_walk_on_trained_forests(model_cache, training_table, kind):
    model, freq = model_cache(kind, 256), training_table(kind, 256)
    for mu in (2 / 3, 0.45):
        assert _audit(model.forest, freq, mu) == _walk_audit(model.forest, freq, mu)


# ---------------------------------------------------------------------------
# searches


def _four_slab_tree() -> SearchForest:
    freq = FrequencyTable(counts=np.array([[4, 4, 4, 4]], dtype=np.uint16), rounds=16)
    return _build_forest(freq, leaf_threshold=1)


def test_search_terminates_immediately_when_root_fits_target():
    forest = _four_slab_tree()
    assert search_steps_to_leaf(forest, 0, 3, interval=(0, 3)) == 0


def test_search_stops_at_containment_not_at_leaf():
    forest = _four_slab_tree()
    assert forest.split[0] == 1
    assert search_steps_to_leaf(forest, 0, 3, interval=(2, 3)) == 1  # one step reaches [2,3]
    assert search_steps_to_leaf(forest, 0, 3, interval=None) == 2  # exact location needs two


def test_search_locates_split_leaf_in_one_step():
    forest = _four_slab_tree()
    assert search_steps_to_leaf(forest, 0, 1, interval=None) == 1
    assert search_steps_to_leaf(forest, 0, 0, interval=None) == 1


def test_fallback_region_is_resolved_by_bisection():
    freq = FrequencyTable(counts=np.ones((1, 4), dtype=np.uint16), rounds=4)
    forest = _build_forest(freq, leaf_threshold=99)
    for leaf in range(4):
        assert search_steps_to_leaf(forest, 0, leaf, interval=None) == 2  # ceil(log2 4)
    assert _audit(forest, freq, mu=2 / 3) == [(1, 2, True)]


def test_search_argument_validation():
    forest = _four_slab_tree()
    with pytest.raises(ValueError, match="out of range"):
        search_steps_to_leaf(forest, 0, 4, interval=None)
    with pytest.raises(ValueError, match="bad interval"):
        search_steps_to_leaf(forest, 0, 0, interval=(2, 9))
    with pytest.raises(ValueError, match="outside interval"):
        search_steps_to_leaf(forest, 0, 0, interval=(1, 2))
    # node 1 exists but is no root: a one-tree forest has no tree 1
    with pytest.raises(ValueError, match="tree 1 out of range"):
        search_steps_to_leaf(forest, 1, 0, interval=None)


def test_simulate_restricted_search_validation():
    forest = _four_slab_tree()
    ok = np.array([1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="trials"):
        simulate_restricted_search(forest, 0, None, ok, trials=0, rng=SeededRng(0))
    with pytest.raises(ValueError, match="length"):
        simulate_restricted_search(forest, 0, None, np.ones(3), trials=1, rng=SeededRng(0))
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_restricted_search(forest, 0, None, np.array([1.0, -1, 0, 0]), trials=1, rng=SeededRng(0))
    with pytest.raises(ValueError, match="positive total"):
        simulate_restricted_search(forest, 0, None, np.zeros(4), trials=1, rng=SeededRng(0))
    with pytest.raises(ValueError, match="support outside"):
        simulate_restricted_search(forest, 0, (0, 1), np.array([0, 1.0, 1.0, 0]), trials=1, rng=SeededRng(0))


def test_trivial_tree_over_one_slab_needs_no_steps():
    forest = SearchForest(1, 1, [-1])
    assert simulate_restricted_search(forest, 0, None, np.array([1.0]), trials=5, rng=SeededRng(1)) == 0.0


def test_full_searches_run_in_entropy_plus_one(model_cache, training_table):
    # interval=None descends to the exact leaf; the mean step count is then
    # within a constant of the position's empirical entropy
    model, freq = model_cache("uniform_square", 256), training_table("uniform_square", 256)
    picker = np.random.RandomState(3)
    for trial in range(40):
        i = int(picker.randint(256))
        weights = freq.counts[i].astype(np.float64)
        mean = simulate_restricted_search(model.forest, i, None, weights, trials=32, rng=SeededRng(trial))
        assert mean <= FULL_SEARCH_C * (model.entropy_per_point[i] + 1.0)


# ---------------------------------------------------------------------------
# whole-model structural invariants


@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_model_structural_bounds(model_cache, training_table, kind):
    for n in (256, 1024):
        model = model_cache(kind, n)
        eps = model.config.epsilon
        per_point_cap = STORAGE_C * n**eps
        depth_cap = (1 + 3 * eps) * math.log2(model.slabs.num_slabs) + DEPTH_SLACK
        audit = audit_forest(model.forest, training_table(kind, n), mu=2 / 3)
        assert audit.nodes.max() <= per_point_cap
        assert audit.steps.max() <= depth_cap


def test_all_trained_trees_are_mu_reducing(model_cache, training_table):
    for kind in ("uniform_square", "staircase_line", "two_level"):
        model = model_cache(kind, 256)
        assert audit_forest(model.forest, training_table(kind, 256), mu=2 / 3).reducing.all()


# ---------------------------------------------------------------------------
# trained model serialization


def test_train_model_is_deterministic():
    spec = build_scenario("uniform_square", 16)
    cfg = TrainingConfig(rounds_cap=50)
    a = train_model(spec, cfg, seed=5)
    b = train_model(spec, cfg, seed=5)
    assert a.to_bytes() == b.to_bytes()
    c = train_model(spec, cfg, seed=6)
    assert c.slabs.boundary_list() != a.slabs.boundary_list()


def test_model_round_trip_preserves_behavior(tmp_path, model_cache):
    model = model_cache("two_level", 64)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.to_bytes() == model.to_bytes()
    inp = sample_input(model.scenario, SeededRng(99))
    cert = run_maxima(loaded, inp)
    assert cert.maxima == run_maxima(model, inp).maxima
    assert cert.maxima_set() == brute_force_maxima(inp).maxima_set()


@pytest.mark.parametrize("config", [TrainingConfig(), TrainingConfig(epsilon=0.3, rounds_cap=20)], ids=["default", "eps0.3-cap20"])
@pytest.mark.parametrize("kind", ["staircase_line", "two_level", "uniform_square"])
def test_model_file_retrains_to_the_same_bytes(tmp_path, kind, config):
    # a file holds its own replay key: retraining (scenario, config, seed) as loaded writes the file again
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_model(train_model(build_scenario(kind, 64), config, seed=9), first)
    loaded = load_model(first)
    assert loaded.config == config
    save_model(train_model(loaded.scenario, loaded.config, loaded.seed), again)
    assert again.read_bytes() == first.read_bytes()


# sha256 of save_model's bytes for the conftest models (n=256, seed 101, eps 0.5)
PINNED_MODEL_SHA256 = {
    "staircase_line": "5d215bc1124ad4745771748c1aea229bbe2981ee9140ad75ee56a111388e9ac0",
    "two_level": "0ac7d78ca91ceb081a0a09cae89ce7b7ba371a044e618776fa7885512abe2a34",
    "uniform_square": "a2fd774ecb80d20b885e0351ce4e57b9e6db9f5aa9da4976b2de6dfb18e57c78",
}


@pytest.mark.parametrize("kind", sorted(PINNED_MODEL_SHA256))
def test_pinned_model_bytes(tmp_path, model_cache, kind):
    path = tmp_path / "model.json"
    save_model(model_cache(kind, 256), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL_SHA256[kind]


def test_failed_save_leaves_the_old_file(tmp_path, model_cache, monkeypatch):
    model = model_cache("uniform_square", 16)
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    monkeypatch.setattr(learning, "MODEL_FORMAT", object())  # the header cannot be encoded
    with pytest.raises(TypeError):
        save_model(model, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


class _FullDisk:
    """A file whose write stores half of the bytes and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(18, "Invalid cross-device link")


@pytest.mark.parametrize("where", ["write", "replace"])
def test_interrupted_save_leaves_the_old_file_and_no_temporary_file(tmp_path, model_cache, monkeypatch, where):
    path = tmp_path / "model.json"
    save_model(model_cache("uniform_square", 16), path)
    before = path.read_bytes()
    if where == "write":
        monkeypatch.setattr(learning, "open", lambda *args: _FullDisk(open(*args)), raising=False)
    else:
        monkeypatch.setattr(learning.os, "replace", _fail_replace)
    with pytest.raises(OSError):
        save_model(model_cache("two_level", 16), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


def test_saved_model_has_the_mode_of_a_plain_open(tmp_path, model_cache):
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    save_model(model_cache("uniform_square", 16), tmp_path / "model.json")
    assert (tmp_path / "model.json").stat().st_mode == plain.stat().st_mode


def test_load_model_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_model(bad)
    bad.write_text(json.dumps({"format": "other"}), encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        load_model(bad)
    bad.write_text("[" * 200_000, encoding="utf-8")
    with pytest.raises(ValueError, match="nested too deeply"):
        load_model(bad)
    bad.write_bytes(b"\xff" + json.dumps({"format": "simax-model"}).encode())
    with pytest.raises(ValueError, match="model file header is not valid UTF-8: .* byte 0xff in position 0"):
        load_model(bad)


def test_load_model_rejects_wrong_version_and_tree_count(tmp_path, model_cache):
    model = model_cache("uniform_square", 16)
    obj = _fields(model.to_bytes())
    obj["version"] = 99
    with pytest.raises(ValueError, match="version"):
        load_model(_write_model(tmp_path, obj))
    with pytest.raises(ValueError, match="15 trees for n=16"):
        dataclasses.replace(model, forest=SearchForest(model.slabs.num_slabs, 15, [-1] * 15))


# A model file in these tests is its header object with each column's bytes under "data" in place of its count.


def _columns(obj):
    """The column fields of a header object in document order: every object with a dtype, at any depth."""
    for value in obj.values():
        if isinstance(value, dict):
            yield from [value] if "dtype" in value else _columns(value)


def _fields(data: bytes) -> dict:
    """A model file as a header object, each column holding its bytes."""
    end = data.index(b"\n")
    obj, offset = json.loads(data[:end]), end + 1
    for column in _columns(obj):
        size = column.pop("count") * np.dtype(column["dtype"]).itemsize
        column["data"], offset = data[offset : offset + size], offset + size
    return obj


def _file(obj) -> bytes:
    """The file of a header object: the header line, then each column's bytes; a column without a count gets its length in items."""
    obj, payload = copy.deepcopy(obj), []
    for column in _columns(obj):
        if "data" in column:
            payload.append(column.pop("data"))
            column.setdefault("count", len(payload[-1]) // np.dtype(column["dtype"]).itemsize)
    return json.dumps(obj).encode() + b"\n" + b"".join(payload)


def _write_model(tmp_path, obj):
    path = tmp_path / "model.json"
    path.write_bytes(_file(obj))
    return path


def _set_path(obj, field: str, value=None) -> None:
    """Set a dotted model field such as "forest.splits" to value, or delete it when value is None."""
    *parents, last = field.split(".")
    for name in parents:
        obj = obj[name]
    if value is None:
        del obj[last]
    else:
        obj[last] = value


@pytest.mark.parametrize(
    "field", ["scenario", "boundaries", "forest", "forest.bitmap", "forest.splits", "epsilon", "rounds_cap", "entropy_per_point"]
)
def test_load_model_names_a_missing_field(tmp_path, model_cache, field):
    obj = _fields(model_cache("uniform_square", 16).to_bytes())
    _set_path(obj, field)
    with pytest.raises(ValueError, match=f"missing model field '{field}'"):
        load_model(_write_model(tmp_path, obj))


def _encode(values, dtype: str) -> dict:
    """A column field holding values as dtype."""
    return {"dtype": dtype, "data": np.asarray(values).astype(dtype).tobytes()}


def _decode(column: dict) -> list:
    return np.frombuffer(column["data"], dtype=column["dtype"]).tolist()


def _splits(obj) -> list:
    """The level-order split list, -1 for a node that is not expanded, of a header object that loads."""
    return TrainedModel.from_bytes(_file(obj)).forest.split.tolist()


def _store_forest(obj, splits: list) -> None:
    """Write a split list back as the forest's bitmap and splits columns, the splits as "<i4" if "<u2" cannot hold them."""
    splits = np.asarray(splits)
    inner = splits != -1
    values = splits[inner]
    dtype = "<u2" if ((values >= 0) & (values <= 65535)).all() else "<i4"
    obj["forest"] = {"bitmap": _encode(np.packbits(inner), "<u1"), "splits": _encode(values, dtype)}


def test_load_model_checks_entropy_length(tmp_path, model_cache):
    obj = _fields(model_cache("uniform_square", 16).to_bytes())
    obj["entropy_per_point"] = _encode([1.0], "<f8")
    with pytest.raises(ValueError, match="entropy_per_point has shape"):
        load_model(_write_model(tmp_path, obj))


def test_load_model_rejects_non_integer_column_entries(tmp_path, model_cache):
    # the splits column is binary, so a non-integer split can only come as a float dtype
    obj = _fields(model_cache("uniform_square", 16).to_bytes())
    obj["forest"]["splits"] = _encode(_decode(obj["forest"]["splits"]), "<f8")
    with pytest.raises(ValueError, match=r"forest\.splits must be an object with dtype <u2 or <i4"):
        load_model(_write_model(tmp_path, obj))


def test_load_model_rejects_column_entries_outside_int32(tmp_path, model_cache):
    # "<i4" holds nothing outside int32, so a split of 2**31 needs a wider dtype, which is not read
    obj = _fields(model_cache("uniform_square", 16).to_bytes())
    obj["forest"]["splits"] = _encode([2**31] + _decode(obj["forest"]["splits"])[1:], "<i8")
    with pytest.raises(ValueError, match=r"forest\.splits must be an object with dtype <u2 or <i4 .* got dtype '<i8'"):
        load_model(_write_model(tmp_path, obj))


@pytest.mark.parametrize(
    "field, column, message",
    [
        ("forest", [-1] * 16, "forest must be an object, got list"),  # version 4's plain list
        ("forest.splits", {"dtype": "<u2"}, r"forest\.splits count must be an integer >= 0, got None"),
        ("forest.splits", {"dtype": ">u2", "data": b""}, r"forest\.splits must be an object .* got dtype '>u2'"),
        ("forest.splits", _encode([0], "<u1"), r"forest\.splits must be an object .* got dtype '<u1'"),
        # a column takes count whole items, so bytes left over are past the last column
        ("forest.splits", {"dtype": "<u2", "data": bytes(3)}, "model file has 1 bytes past its last column"),
        ("forest.splits", {"dtype": "<i4", "data": bytes(5)}, "model file has 1 bytes past its last column"),
        ("forest", _encode([-1] * 16, "<u2"), "model file has 32 bytes past its last column"),  # version 8's single column is no column
        ("forest.splits", {"dtype": "<u2", "count": -1}, r"forest\.splits count must be an integer >= 0, got -1"),
        ("forest.splits", {"dtype": "<u2", "count": True}, r"forest\.splits count must be an integer >= 0, got True"),
        ("forest.bitmap", {"dtype": "<u1", "count": 2.0}, r"forest\.bitmap count must be an integer >= 0, got 2\.0"),
        ("entropy_per_point", {"dtype": "<f8", "count": "16"}, "entropy_per_point count must be an integer >= 0, got '16'"),
        ("boundaries", {"dtype": "<f8", "count": 10**6}, "model file ends inside column boundaries: 1000000 x <f8 from byte"),
        ("forest.bitmap", _encode([255, 255], "<u2"), r"forest\.bitmap must be an object with dtype <u1 .* got dtype '<u2'"),
        ("forest.bitmap", [1, 0, 1], r"forest\.bitmap must be an object .* got list"),
        ("entropy_per_point", _encode(np.zeros(16), "<f4"), "entropy_per_point must be an object with dtype <f8 .* got dtype '<f4'"),
        ("entropy_per_point", [0.0] * 16, "entropy_per_point must be an object .* got list"),
        ("entropy_per_point", {"dtype": "<f8", "data": bytes(3)}, "model file has 3 bytes past its last column"),
        ("boundaries", _encode([0.25, 0.5, 0.5], "<f8"), "boundaries must be strictly increasing"),
        ("boundaries", _encode([], "<f8"), "boundaries must be a nonempty 1-d array"),
        ("boundaries", _encode([0.25, 0.5], "<f4"), "boundaries must be an object with dtype <f8 .* got dtype '<f4'"),
        ("boundaries", [0.25, 0.5], "boundaries must be an object .* got list"),  # version 6's plain list
    ],
    ids=[
        "forest list",
        "forest no data",
        "forest big-endian",
        "forest uint8",
        "forest odd byte length",
        "forest int32 byte length",
        "forest version 8 column",
        "forest count negative",
        "forest count bool",
        "forest bitmap count float",
        "entropy count str",
        "boundaries count past the payload",
        "forest bitmap uint16",
        "forest bitmap list",
        "entropy float32",
        "entropy list",
        "entropy byte length",
        "boundaries non-increasing",
        "boundaries empty",
        "boundaries float32",
        "boundaries list",
    ],
)
def test_load_model_rejects_malformed_columns(tmp_path, model_cache, field, column, message):
    obj = _fields(model_cache("uniform_square", 16).to_bytes())
    _set_path(obj, field, column)
    with pytest.raises(ValueError, match=message):
        load_model(_write_model(tmp_path, obj))


def _version_9_file(data: bytes) -> bytes:
    """The file as version 9 wrote it: one JSON line whose columns hold their bytes in base64."""
    obj = _fields(data)
    obj["version"] = 9
    for column in _columns(obj):
        column["data"] = base64.b64encode(column["data"]).decode("ascii")
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda data: data[:-1], "model file ends inside column entropy_per_point: 16 x <f8"),
        (lambda data: data + b"\0", "model file has 1 bytes past its last column"),
        (lambda data: b"{not json" + data[data.index(b"\n") :], "model file header is not valid JSON"),
        (lambda data: b"\xff" + data, "model file header is not valid UTF-8"),
        (lambda data: data[: data.index(b"\n")], "model file has no newline after its header line"),
        (_version_9_file, "model file version 9 is not read .*; retrain the model"),
    ],
    ids=["payload short", "payload long", "header not JSON", "header not UTF-8", "no newline", "version 9 file"],
)
def test_load_model_rejects_a_broken_layout(tmp_path, model_cache, mutate, message):
    path = tmp_path / "model.json"
    path.write_bytes(mutate(model_cache("uniform_square", 16).to_bytes()))
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_columns_follow_the_header_in_its_own_order(model_cache):
    model = model_cache("two_level", 16)
    obj = _fields(model.to_bytes())
    reordered = dict(reversed(obj.items()))  # entropy_per_point's bytes come first, the scenario's last
    reordered["forest"] = dict(reversed(obj["forest"].items()))
    assert TrainedModel.from_bytes(_file(reordered)).to_bytes() == model.to_bytes()


@pytest.mark.parametrize("kind", ["staircase_line", "two_level", "uniform_square"])
def test_loaded_model_keeps_no_view_of_the_file(model_cache, kind):
    data = model_cache(kind, 64).to_bytes()
    refs = sys.getrefcount(data)
    loaded = TrainedModel.from_bytes(data)
    assert sys.getrefcount(data) == refs  # no array of the model is a view of the file's bytes
    assert loaded.slabs.boundaries.flags.owndata


@settings(max_examples=200, deadline=2000)
@given(kind=st.sampled_from(["staircase_line", "two_level", "uniform_square"]), data=st.data())
def test_a_mutated_model_file_raises_value_error_or_certifies(model_cache, kind, data):
    good = model_cache(kind, 16).to_bytes()
    how = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if how == "truncate":
        mutant = good[: data.draw(st.integers(0, len(good) - 1))]
    elif how == "extend":
        mutant = good + data.draw(st.binary(min_size=1, max_size=16))
    else:
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255)), min_size=1, max_size=4))
        mutant = bytearray(good)
        for at, mask in flips:
            mutant[at] ^= mask
        mutant = bytes(mutant)
    try:
        loaded = TrainedModel.from_bytes(mutant)
    except ValueError:
        return
    rng = np.random.default_rng(7)
    inp = InputSet(rng.random(loaded.n), rng.random(loaded.n))
    assert check_certificate(inp, run_maxima(loaded, inp)) is None


def _set_entry(name, index, value):
    """A corruption that sets one entry of a scenario column, keeping the column's dtype."""

    def corrupt(scenario):
        column = scenario[name]
        values = np.frombuffer(column["data"], dtype=column["dtype"]).copy()
        values[index] = value
        scenario[name] = _encode(values, column["dtype"])

    return corrupt


def _set_field(name, value):
    return lambda scenario: scenario.__setitem__(name, value)


def _drop_last(name):
    return lambda scenario: scenario.__setitem__(name, _encode(_decode(scenario[name])[:-1], scenario[name]["dtype"]))


def _move_atoms(scenario):
    # mixture 0 gets no atoms and mixture 1 takes them, so the counts still sum to the atom columns' length
    _set_entry("atoms", [0, 1], [0, 4])(scenario)


@pytest.mark.parametrize(
    "kind, corrupt, message",
    [
        ("two_level", _set_field("kind", _encode(np.full(16, 3), "<i4")), r"scenario\.kind must be .* dtype <u1 .* got dtype '<i4'"),
        ("two_level", _set_field("weight", _encode(np.full(32, 0.5), "<f4")), r"scenario\.weight must be .* dtype <f8 .* got dtype '<f4'"),
        ("staircase_line", _drop_last("mass_x"), r"scenario\.mass_x: has 7 entries, expected 8"),
        ("staircase_line", _drop_last("kind"), r"scenario\.x0: has 8 entries, expected 7"),
        ("uniform_square", _drop_last("y1"), r"scenario\.y1: has 15 entries, expected 16"),
        ("two_level", _drop_last("atom_y"), r"scenario\.atom_y: has 31 entries, expected 32"),
        ("two_level", _set_entry("kind", 3, 4), r"scenario\.kind\[3\]: not a kind code, got 4"),
        ("two_level", _set_entry("kind", 0, 255), r"scenario\.kind\[0\]: not a kind code, got 255"),
        ("uniform_square", _set_entry("x1", 2, np.inf), r"scenario\.x1\[2\]: must be finite, got inf"),
        ("staircase_line", _set_entry("mass_y", 1, np.nan), r"scenario\.mass_y\[1\]: must be finite, got nan"),
        ("two_level", _set_entry("atom_x", 5, -np.inf), r"scenario\.atom_x\[5\]: must be finite"),
        ("uniform_square", _set_entry("x0", 5, 2.0), r"scenario\.x0\[5\]: a uniform_rect's extents must satisfy x0 <= x1, got 2\.0"),
        ("uniform_square", _set_entry("y0", 0, 1.5), r"scenario\.y0\[0\]: a uniform_rect's extents must satisfy y0 <= y1, got 1\.5"),
        ("two_level", _set_entry("weight", 1, 0.0), r"scenario\.weight\[1\]: must be positive, got 0\.0"),
        ("two_level", _set_entry("weight", [2, 3], [1.5, -0.5]), r"scenario\.weight\[3\]: must be positive, got -0\.5"),
        ("two_level", _set_entry("weight", 4, 0.6), r"scenario\.weight: the mixture at position 2 sums to 1\.1, expected 1 within 1e-9"),
        ("two_level", _set_entry("weight", 0, 0.5 + 2e-9), r"scenario\.weight: the mixture at position 0 sums to"),
        ("two_level", _move_atoms, r"scenario\.atoms\[0\]: a mixture needs at least one atom, got 0"),
        ("two_level", _set_entry("atoms", 0, 2**31), r"scenario\.atom_x: has 32 entries, expected 2147483678"),
        ("two_level", _set_entry("atoms", 0, 2**32 - 1), r"scenario\.atom_x: has 32 entries, expected 4294967325"),
        ("two_level", _set_field("n", 17), r"scenario\.n must be the integer 16, the length of scenario\.kind, got 17"),
        ("two_level", _set_field("n", "16"), r"scenario\.n must be the integer 16, .* got '16'"),
        ("two_level", _set_field("n", 16.0), r"scenario\.n must be the integer 16, .* got 16\.0"),
        ("two_level", _set_field("name", 5), r"scenario\.name: expected a string, got 5"),
        ("two_level", lambda scenario: scenario.pop("weight"), r"missing model field 'scenario\.weight'"),
        ("two_level", lambda scenario: scenario.pop("n"), r"missing model field 'scenario\.n'"),
    ],
    ids=[
        "kind int32",
        "weight float32",
        "mass_x short",
        "kind short",
        "y1 short",
        "atom_y short",
        "kind code 4",
        "kind code 255",
        "x1 inf",
        "mass_y nan",
        "atom_x -inf",
        "rect x0 > x1",
        "rect y0 > y1",
        "weight 0",
        "weight negative",
        "weights sum 1.1",
        "weights sum off by 2e-9",
        "mixture of 0 atoms",
        "atom count 2**31",
        "atom count 2**32-1",
        "n 17",
        "n str",
        "n float",
        "name int",
        "weight missing",
        "n missing",
    ],
)
def test_load_model_rejects_hostile_scenario_columns(tmp_path, model_cache, kind, corrupt, message):
    obj = _fields(model_cache(kind, 16).to_bytes())
    corrupt(obj["scenario"])
    with pytest.raises(ValueError, match=message):  # a ScenarioError is a ValueError
        load_model(_write_model(tmp_path, obj))


def test_load_model_rejects_a_scenario_that_is_not_an_object(tmp_path, model_cache):
    obj = _fields(model_cache("two_level", 16).to_bytes())
    obj["scenario"] = [obj["scenario"]["name"], obj["scenario"]["n"]]
    with pytest.raises(ValueError, match="scenario must be an object, got list"):
        load_model(_write_model(tmp_path, obj))


# corruptions of a model file whose tree 0 has an internal root, i.e. the file's forest starts [s, ...] with s >= 0;
# node n is then root 0's first child


def _split_past_last_slab(obj):
    splits = _splits(obj)
    splits[0] = len(_decode(obj["boundaries"])) + 1
    _store_forest(obj, splits)


def _split_below_minus_one(obj):
    splits = _splits(obj)
    splits[0] = -2
    _store_forest(obj, splits)


def _left_child_reaches_the_split(obj):
    splits = _splits(obj)
    splits[obj["scenario"]["n"]] = splits[0]  # root 0's left child, or its right one when the root splits at 0
    _store_forest(obj, splits)


def _tree_0_missing_a_node(obj):
    splits = _splits(obj)
    del splits[obj["scenario"]["n"]]
    _store_forest(obj, splits)


def _one_trailing_split(obj):
    _store_forest(obj, _splits(obj) + [0])  # one more bit, set, and one more split


def _last_level_truncated(obj):
    # the bitmap loses its last byte, and the splits lose the ones that byte marked
    bitmap, splits = _decode(obj["forest"]["bitmap"]), _decode(obj["forest"]["splits"])
    obj["forest"]["bitmap"] = _encode(bitmap[:-1], "<u1")
    obj["forest"]["splits"] = _encode(splits[: len(splits) - bin(bitmap[-1]).count("1")], obj["forest"]["splits"]["dtype"])


def _bitmap_one_byte_too_long(obj):
    obj["forest"]["bitmap"] = _encode(_decode(obj["forest"]["bitmap"]) + [0], "<u1")


def _one_split_missing(obj):
    splits = obj["forest"]["splits"]
    obj["forest"]["splits"] = _encode(_decode(splits)[:-1], splits["dtype"])


def _version_2(obj):
    obj["version"] = 2


def _version_3(obj):
    obj["version"] = 3


def _version_4(obj):
    obj["version"] = 4


def _version_5(obj):
    obj["version"] = 5


def _version_6(obj):
    obj["version"] = 6


def _version_7(obj):
    obj["version"] = 7


def _version_8(obj):
    obj["version"] = 8


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_split_past_last_slab, "split outside its interval"),
        (_split_below_minus_one, "split outside its interval"),
        (_left_child_reaches_the_split, "split outside its interval"),
        (_tree_0_missing_a_node, "search forest"),  # later splits shift into the wrong nodes
        (_one_trailing_split, "past its last level: 1 more"),
        (_last_level_truncated, "end inside level"),
        (_bitmap_one_byte_too_long, r"forest\.bitmap is 121 bytes, but the 960 nodes it describes need 120"),
        (_one_split_missing, r"forest\.bitmap marks \d+ split nodes, but forest\.splits holds \d+"),
        (None, "version 1 .* retrain"),
        (_version_2, "version 2 .* retrain"),
        (_version_3, "version 3 .* retrain"),
        (_version_4, "version 4 .* retrain"),
        (_version_5, "version 5 .* retrain"),
        (_version_6, "version 6 .* retrain"),
        (_version_7, "version 7 .* retrain"),
        (_version_8, "version 8 .* retrain"),
    ],
)
def test_load_model_rejects_corrupt_forests(tmp_path, model_cache, corrupt, message):
    obj = _fields(model_cache("uniform_square", 64).to_bytes())
    assert _splits(obj)[0] >= 0 and len(_splits(obj)) == 960  # tree 0's root is an internal node; the bitmap has no pad bits
    if corrupt is None:
        obj["version"] = 1
    else:
        corrupt(obj)
    with pytest.raises(ValueError, match=message):
        load_model(_write_model(tmp_path, obj))


@pytest.mark.parametrize(
    "set_bit, extra, message",
    [
        (7, [0], "past its last level: 1 more"),  # the last pad bit marks a split past the last level
        (6, [], r"forest\.bitmap marks \d+ split nodes"),  # and one that marks no split is counted first
    ],
    ids=["pad bit with a split", "pad bit alone"],
)
def test_load_model_requires_clear_pad_bits(tmp_path, model_cache, set_bit, extra, message):
    obj = _fields(model_cache("two_level", 64).to_bytes())
    assert len(_splits(obj)) % 8 == 6  # so the bitmap's last byte has two pad bits, 6 and 7
    bitmap, splits = _decode(obj["forest"]["bitmap"]), _decode(obj["forest"]["splits"])
    bitmap[-1] |= 0x80 >> set_bit
    obj["forest"] = {"bitmap": _encode(bitmap, "<u1"), "splits": _encode(splits + extra, obj["forest"]["splits"]["dtype"])}
    with pytest.raises(ValueError, match=message):
        load_model(_write_model(tmp_path, obj))


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", float("nan")),
        ("epsilon", 7.0),
        ("delta", -1.0),
        ("rounds_cap", 0),
        ("seed", -7),
        ("seed", 2**70),
        ("entropy_per_point", float("nan")),
        ("entropy_per_point", -20.0),
        # numbers must have their exact JSON type, and a column must be one
        ("rounds_cap", 4.7),
        ("rounds_cap", True),
        ("rounds_cap", "10000"),
        ("seed", True),
        ("seed", "7"),
        ("seed", "abc"),
        ("epsilon", "0.5"),
        ("entropy_per_point", "1.0"),
        ("entropy_per_point", True),
        ("boundaries", "-1.0"),
        ("boundaries", float("nan")),
        # an integer too large for a float
        pytest.param("epsilon", 10**400, id="epsilon-10**400"),
        pytest.param("delta", -(10**400), id="delta--10**400"),
    ],
)
def test_load_model_rejects_corrupt_provenance(tmp_path, model_cache, field, value):
    obj = _fields(model_cache("uniform_square", 16).to_bytes())
    if isinstance(obj[field], dict) and type(value) is float:
        obj[field] = _encode([value] + _decode(obj[field])[1:], obj[field]["dtype"])  # one bad entry in a column
    else:
        obj[field] = value
    with pytest.raises(ValueError, match=field):
        load_model(_write_model(tmp_path, obj))


@pytest.mark.parametrize("seed", [1.5, True, "7", np.int64(7)])
def test_model_rejects_a_seed_its_file_could_not_load(model_cache, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        dataclasses.replace(model_cache("uniform_square", 16), seed=seed)


def test_train_model_rejects_a_seed_that_is_not_an_integer():
    with pytest.raises(ValueError, match="seed must be an integer"):
        train_model(build_scenario("uniform_square", 16), seed=1.5)


def _hand_built_model(num_slabs: int, splits: list) -> TrainedModel:
    """A two-position model over num_slabs slabs with the given level-order splits."""
    return TrainedModel(
        scenario=ScenarioSpec("pair", kind=[0, 0], mass_x=[0.0, 1.0], mass_y=[1.0, 0.0]),
        slabs=SlabStructure(np.arange(num_slabs - 1, dtype=np.float64)),
        forest=SearchForest(num_slabs, 2, splits),
        config=TrainingConfig(),
        seed=0,
        entropy_per_point=np.array([0.0, 1.5]),
    )


@pytest.mark.parametrize(
    "num_slabs, splits, dtype",
    [
        (65535, [65534, -1, -1], "<u2"),
        (70000, [69999, 65535, -1, -1, -1], "<i4"),  # root 1 splits at 65535
        (65536, [65535, 0, -1, -1], "<u2"),  # the top slab: "<u2" holds every slab index, with no sentinel
        (65537, [65536, -1, -1], "<i4"),  # the smallest model whose top slab needs "<i4"
    ],
)
def test_forest_column_width_round_trips(tmp_path, num_slabs, splits, dtype):
    model = _hand_built_model(num_slabs, splits)
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = _fields(path.read_bytes())
    assert obj["forest"]["bitmap"]["dtype"] == "<u1" and obj["forest"]["splits"]["dtype"] == dtype
    assert _decode(obj["forest"]["splits"]) == [s for s in splits if s >= 0]  # the splits of the split nodes only
    loaded = load_model(path)
    assert loaded.forest.split.tolist() == splits
    assert loaded.forest.right == model.forest.right


def test_load_model_rejects_a_uint16_split_past_the_slabs(tmp_path):
    # "<u2" holds splits up to 65535, which the interval check refuses on a model with fewer slabs
    obj = _fields(_hand_built_model(65535, [65534, -1, -1]).to_bytes())
    obj["forest"]["splits"] = _encode([65535], "<u2")
    with pytest.raises(ValueError, match=r"node 0 has a split outside its interval \[0, 65534\]: 65535"):
        load_model(_write_model(tmp_path, obj))


@pytest.mark.parametrize("kind", ["staircase_line", "two_level", "uniform_square"])
def test_model_file_round_trip_is_byte_exact(tmp_path, model_cache, kind):
    model = model_cache(kind, 256)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.slabs.boundaries.tobytes() == model.slabs.boundaries.tobytes()
    assert loaded.forest.split.tobytes() == model.forest.split.tobytes()
    assert loaded.forest.right.tobytes() == model.forest.right.tobytes()
    assert loaded.entropy_per_point.tobytes() == model.entropy_per_point.tobytes()


@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_recorded_training_table_is_the_one_the_model_was_built_from(model_cache, training_table, kind):
    # the audits read conftest's recorded table, so it must be the table the trees and entropies came from
    model, freq = model_cache(kind, 256), training_table(kind, 256)
    assert freq.rounds == model.config.tree_rounds(256)
    assert build_search_tree(freq, model.config.leaf_threshold(256)).tobytes() == model.forest.split.tobytes()
    assert entropy_proxy(freq).tobytes() == model.entropy_per_point.tobytes()
