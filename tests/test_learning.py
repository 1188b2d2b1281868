import base64
import dataclasses
import hashlib
import json
import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simax import (
    FrequencyTable,
    SearchForest,
    SlabStructure,
    TrainedModel,
    TrainingConfig,
    build_scenario,
    build_search_tree,
    build_slab_structure,
    check_mu_reducing,
    collect_frequencies,
    load_model,
    run_maxima,
    sample_input,
    save_model,
    simulate_restricted_search,
    train_model,
)
from simax.distributions import FiniteMixture, PointMass, ScenarioSpec, SeededRng, UniformRect, UniformSegment
from simax.geometry import InputSet, brute_force_maxima
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
    """The plain per-round 2-D scatter: each round locates its xs in position order."""
    counts = np.zeros((spec.n, slabs.num_slabs), dtype=np.uint16 if rounds <= 65535 else np.uint32)
    rows = np.arange(spec.n)
    for _ in range(rounds):
        counts[rows, slabs.locate_array(sample_input(spec, rng).xs)] += 1
    return counts


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_collect_frequencies_matches_the_plain_scatter(kind, n):
    spec = build_scenario(kind, n)
    rng = SeededRng(5)
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(TrainingConfig().slab_rounds(n))])
    got = collect_frequencies(spec, slabs, 60, SeededRng(6)).counts
    want = _collect_frequencies_reference(spec, slabs, 60, SeededRng(6))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_collect_frequencies_matches_the_plain_scatter_on_boundaries():
    # draws exactly on boundaries, -0.0 against the 0.0 boundary, and x values shared by several positions
    slabs = SlabStructure([-1.0, 0.0, 0.5, 2.0])
    spec = ScenarioSpec(
        "boundaries",
        (
            PointMass(-0.0, 0.0),
            PointMass(0.0, 1.0),
            PointMass(0.5, 0.0),
            PointMass(0.5, 3.0),
            FiniteMixture(atoms=((-1.0, 0.0), (2.0, 0.0), (-0.0, 1.0)), weights=(0.25, 0.25, 0.5)),
            FiniteMixture(atoms=((0.0, 2.0), (0.5, 1.0)), weights=(0.5, 0.5)),
            UniformSegment(-1.0, 0.0, 2.0, 0.0),
            UniformRect(0.5, 0.5, 0.0, 1.0),
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
    spec = ScenarioSpec("fixed", (PointMass(0.7, 0.0), PointMass(2.5, 0.0)))
    slabs = SlabStructure([1.0, 2.0])
    freq = collect_frequencies(spec, slabs, rounds=11, rng=SeededRng(0))
    assert freq.counts[0].tolist() == [11, 0, 0]
    assert freq.counts[1].tolist() == [0, 0, 11]


def test_row_zero_frequencies_are_loosely_balanced(model_cache):
    # frozen-seed measurement: the first position's interior counts stay
    # within 3x of the interior mean (min counts can be 0 at this budget,
    # so max/min is not a usable yardstick)
    freq = model_cache("uniform_square", 64).frequencies
    interior = freq.counts[0][1:-1].astype(float)
    assert interior.max() <= 3.0 * interior.mean()


# ---------------------------------------------------------------------------
# search tree construction


def _build_forest(freq: FrequencyTable, leaf_threshold: int) -> SearchForest:
    return SearchForest(freq.num_slabs, freq.n, build_search_tree(freq, leaf_threshold))


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


def _preorder(forest: SearchForest, i: int) -> list[int]:
    return [forest.split[nid] for nid, *_ in forest.walk(i)]


def test_weighted_median_split_example():
    freq = FrequencyTable(counts=np.array([[4, 4, 8]], dtype=np.uint16), rounds=16)
    forest = _build_forest(freq, leaf_threshold=1)
    assert forest.split[0] == 1
    assert forest.node_count(0) == 3
    assert forest.right[0] == 2  # the right child's slot; the left child, node 1, sits just before it
    assert forest.intervals(0) == [(0, 2), (0, 0), (2, 2)]
    assert check_mu_reducing(forest, 0, freq, mu=2 / 3)


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
    assert forest.node_count(0) == 1
    assert forest.split.tolist() == [-1]
    assert forest.intervals(0) == [(0, 2)]


def test_uniform_counts_give_logarithmic_depth():
    freq = FrequencyTable(counts=np.ones((1, 256), dtype=np.uint16), rounds=256)
    forest = _build_forest(freq, leaf_threshold=1)
    assert forest.max_search_steps(0) <= 9  # median split halves the mass every level


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
    assert check_mu_reducing(forest, 0, freq, mu=2 / 3)
    # children partition the parent slab minus the split leaf; the left child sits just before the right-child slot
    intervals = {nid: (lo, hi) for nid, lo, hi, _ in forest.walk(0)}
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
    order = sorted((nid, depth, i) for i in range(freq.n) for nid, _, _, depth in forest.walk(i))
    assert [nid for nid, _, _ in order] == list(range(len(forest.split)))
    assert [(depth, i) for _, depth, i in order] == sorted((depth, i) for _, depth, i in order)
    assert all(next(forest.walk(i))[0] == i for i in range(freq.n))  # root i is node i


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
    assert all(_preorder(forest, i) == _preorder_reference(counts[i], 50) for i in range(freq.n))


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
    assert forest.intervals(0) == [(0, 3), (0, 0), (2, 3)] and forest.intervals(1) == [(0, 3)]
    assert forest.right.tolist() == [3, -1, -1, -1]
    assert forest.n == 2 and forest.node_count(0) == 3 and forest.node_count(1) == 1


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


def test_check_mu_reducing_flags_handmade_violation():
    # child holds 9 of the parent's 10: far above 2/3
    freq = FrequencyTable(counts=np.array([[9, 0, 1]], dtype=np.uint16), rounds=10)
    forest = SearchForest(3, 1, [1, -1, -1])
    assert not check_mu_reducing(forest, 0, freq, mu=2 / 3)
    assert check_mu_reducing(forest, 0, freq, mu=0.95)


def test_single_node_tree_is_vacuously_reducing():
    freq = FrequencyTable(counts=np.array([[5]], dtype=np.uint16), rounds=5)
    forest = _build_forest(freq, leaf_threshold=10)
    assert check_mu_reducing(forest, 0, freq, mu=2 / 3)


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
    assert forest.node_count(0) == 1
    for leaf in range(4):
        assert search_steps_to_leaf(forest, 0, leaf, interval=None) == 2  # ceil(log2 4)
    assert forest.max_search_steps(0) == 2


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
    with pytest.raises(ValueError, match="tree 1 out of range"):
        forest.node_count(1)


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


def test_full_searches_run_in_entropy_plus_one(model_cache):
    # interval=None descends to the exact leaf; the mean step count is then
    # within a constant of the position's empirical entropy
    model = model_cache("uniform_square", 256)
    freq = model.frequencies
    picker = np.random.RandomState(3)
    for trial in range(40):
        i = int(picker.randint(256))
        weights = freq.counts[i].astype(np.float64)
        mean = simulate_restricted_search(model.forest, i, None, weights, trials=32, rng=SeededRng(trial))
        assert mean <= FULL_SEARCH_C * (model.entropy_per_point[i] + 1.0)


# ---------------------------------------------------------------------------
# whole-model structural invariants


@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_model_structural_bounds(model_cache, kind):
    for n in (256, 1024):
        model = model_cache(kind, n)
        eps = model.config.epsilon
        per_point_cap = STORAGE_C * n**eps
        depth_cap = (1 + 3 * eps) * math.log2(model.slabs.num_slabs) + DEPTH_SLACK
        for i in range(n):
            assert model.forest.node_count(i) <= per_point_cap
            assert model.forest.max_search_steps(i) <= depth_cap


def test_all_trained_trees_are_mu_reducing(model_cache):
    for kind in ("uniform_square", "staircase_line", "two_level"):
        model = model_cache(kind, 256)
        freq = model.frequencies
        assert all(check_mu_reducing(model.forest, i, freq, mu=2 / 3) for i in range(model.n))


# ---------------------------------------------------------------------------
# trained model serialization


def test_train_model_is_deterministic():
    spec = build_scenario("uniform_square", 16)
    cfg = TrainingConfig(rounds_cap=50)
    a = train_model(spec, cfg, seed=5)
    b = train_model(spec, cfg, seed=5)
    assert a.to_dict() == b.to_dict()
    c = train_model(spec, cfg, seed=6)
    assert c.slabs.boundary_list() != a.slabs.boundary_list()


def test_model_round_trip_preserves_behavior(tmp_path, model_cache):
    model = model_cache("two_level", 64)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.to_dict() == model.to_dict()
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
    "staircase_line": "712ad30332ea9d196a39fe55bd5a50ba662678f43394840d8a427ad89c269553",
    "two_level": "e6fdecc74a2ed226fb78f5f0d07a60e00033a803b94793652925e747410df3fc",
    "uniform_square": "a75b2d6c019b25b78cb16d4157f7c0ef4350a2046a02828f1827b387d6b890e5",
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
    monkeypatch.setattr(TrainedModel, "to_dict", lambda self: {"seed": object()})
    with pytest.raises(TypeError):
        save_model(model, path)
    assert path.read_bytes() == before


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


def test_load_model_rejects_wrong_version_and_tree_count(tmp_path, model_cache):
    model = model_cache("uniform_square", 16)
    obj = model.to_dict()
    obj["version"] = 99
    p = tmp_path / "v.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        load_model(p)
    with pytest.raises(ValueError, match="15 trees for n=16"):
        dataclasses.replace(model, forest=SearchForest(model.slabs.num_slabs, 15, [-1] * 15))


def _write_model(tmp_path, obj):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize("field", ["scenario", "boundaries", "forest", "epsilon", "rounds_cap", "entropy_per_point"])
def test_load_model_names_a_missing_field(tmp_path, model_cache, field):
    obj = model_cache("uniform_square", 16).to_dict()
    del obj[field]
    with pytest.raises(ValueError, match=f"missing model field '{field}'"):
        load_model(_write_model(tmp_path, obj))


def _encode(values, dtype: str) -> dict:
    """A column field as save_model writes it (a -1 split wraps to 65535 in "<u2")."""
    return {"dtype": dtype, "data": base64.b64encode(np.asarray(values).astype(dtype).tobytes()).decode("ascii")}


def _decode(column: dict) -> list:
    values = np.frombuffer(base64.b64decode(column["data"]), dtype=column["dtype"])
    return [-1 if column["dtype"] == "<u2" and v == 65535 else v for v in values.tolist()]


def _store_forest(obj, splits: list) -> None:
    """Write a split list back as the forest column, as "<i4" if "<u2" cannot hold it."""
    obj["forest"] = _encode(splits, "<u2" if all(-1 <= s < 65535 for s in splits) else "<i4")


def test_load_model_checks_entropy_length(tmp_path, model_cache):
    obj = model_cache("uniform_square", 16).to_dict()
    obj["entropy_per_point"] = _encode([1.0], "<f8")
    with pytest.raises(ValueError, match="entropy_per_point has shape"):
        load_model(_write_model(tmp_path, obj))


def test_load_model_rejects_non_integer_column_entries(tmp_path, model_cache):
    # the forest column is binary, so a non-integer split can only come as a float dtype
    obj = model_cache("uniform_square", 16).to_dict()
    obj["forest"] = _encode(_decode(obj["forest"]), "<f8")
    with pytest.raises(ValueError, match="forest must be an object with dtype <u2 or <i4"):
        load_model(_write_model(tmp_path, obj))


def test_load_model_rejects_column_entries_outside_int32(tmp_path, model_cache):
    # "<i4" holds nothing outside int32, so a split of 2**31 needs a wider dtype, which is not read
    obj = model_cache("uniform_square", 16).to_dict()
    obj["forest"] = _encode([2**31] + _decode(obj["forest"])[1:], "<i8")
    with pytest.raises(ValueError, match="forest must be an object with dtype <u2 or <i4 .* got dtype '<i8'"):
        load_model(_write_model(tmp_path, obj))


@pytest.mark.parametrize(
    "field, column, message",
    [
        ("forest", [-1] * 16, "forest must be an object .* got list"),  # version 4's plain list
        ("forest", {"dtype": "<u2"}, "forest must be an object .* base64 data"),
        ("forest", {"dtype": ">u2", "data": ""}, "forest must be an object .* got dtype '>u2'"),
        ("forest", {"dtype": "<u2", "data": "AA*A"}, "forest data is not valid base64"),
        ("forest", {"dtype": "<u2", "data": "AAA"}, "forest data is not valid base64"),  # padding missing
        ("forest", {"dtype": "<u2", "data": "AAA\u00e9"}, "forest data is not valid base64"),
        ("forest", _encode([0], "<u1"), "forest must be an object .* got dtype '<u1'"),
        ("forest", {"dtype": "<u2", "data": "AAAA"}, "forest data is 3 bytes, not a multiple of <u2's 2"),
        ("forest", {"dtype": "<i4", "data": "AAAAAAA="}, "forest data is 5 bytes, not a multiple of <i4's 4"),
        ("entropy_per_point", _encode(np.zeros(16), "<f4"), "entropy_per_point must be an object with dtype <f8 .* got dtype '<f4'"),
        ("entropy_per_point", [0.0] * 16, "entropy_per_point must be an object .* got list"),
        ("entropy_per_point", {"dtype": "<f8", "data": "AAAA"}, "entropy_per_point data is 3 bytes, not a multiple of <f8's 8"),
        ("boundaries", _encode([0.25, 0.5, 0.5], "<f8"), "boundaries must be strictly increasing"),
        ("boundaries", _encode([], "<f8"), "boundaries must be a nonempty 1-d array"),
        ("boundaries", _encode([0.25, 0.5], "<f4"), "boundaries must be an object with dtype <f8 .* got dtype '<f4'"),
        ("boundaries", [0.25, 0.5], "boundaries must be an object .* got list"),  # version 6's plain list
    ],
    ids=[
        "forest list",
        "forest no data",
        "forest big-endian",
        "forest bad character",
        "forest bad padding",
        "forest non-ASCII",
        "forest uint8",
        "forest odd byte length",
        "forest int32 byte length",
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
    obj = model_cache("uniform_square", 16).to_dict()
    obj[field] = column
    with pytest.raises(ValueError, match=message):
        load_model(_write_model(tmp_path, obj))


# corruptions of a model file whose tree 0 has an internal root, i.e. the file's forest starts [s, ...] with s >= 0;
# node n is then root 0's first child


def _split_past_last_slab(obj):
    splits = _decode(obj["forest"])
    splits[0] = len(_decode(obj["boundaries"])) + 1
    _store_forest(obj, splits)


def _split_below_minus_one(obj):
    splits = _decode(obj["forest"])
    splits[0] = -2
    _store_forest(obj, splits)


def _left_child_reaches_the_split(obj):
    splits = _decode(obj["forest"])
    splits[len(obj["scenario"]["per_point"])] = splits[0]  # root 0's left child, or its right one when the root splits at 0
    _store_forest(obj, splits)


def _tree_0_missing_a_node(obj):
    splits = _decode(obj["forest"])
    del splits[len(obj["scenario"]["per_point"])]
    _store_forest(obj, splits)


def _one_trailing_split(obj):
    _store_forest(obj, _decode(obj["forest"]) + [-1])


def _last_level_truncated(obj):
    _store_forest(obj, _decode(obj["forest"])[:-1])


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


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_split_past_last_slab, "split outside its interval"),
        (_split_below_minus_one, "split outside its interval"),
        (_left_child_reaches_the_split, "split outside its interval"),
        (_tree_0_missing_a_node, "search forest"),  # later splits shift into the wrong nodes
        (_one_trailing_split, "past its last level: 1 more"),
        (_last_level_truncated, "end inside level"),
        (None, "version 1 .* retrain"),
        (_version_2, "version 2 .* retrain"),
        (_version_3, "version 3 .* retrain"),
        (_version_4, "version 4 .* retrain"),
        (_version_5, "version 5 .* retrain"),
        (_version_6, "version 6 .* retrain"),
    ],
)
def test_load_model_rejects_corrupt_forests(tmp_path, model_cache, corrupt, message):
    obj = model_cache("uniform_square", 64).to_dict()
    assert _decode(obj["forest"])[0] >= 0  # tree 0's root is an internal node
    if corrupt is None:
        obj["version"] = 1
    else:
        corrupt(obj)
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
    obj = model_cache("uniform_square", 16).to_dict()
    if isinstance(obj[field], dict) and type(value) is float:
        obj[field] = _encode([value] + _decode(obj[field])[1:], obj[field]["dtype"])  # one bad entry in a column
    else:
        obj[field] = value
    with pytest.raises(ValueError, match=field):
        load_model(_write_model(tmp_path, obj))


def _hand_built_model(num_slabs: int, splits: list) -> TrainedModel:
    """A two-position model over num_slabs slabs with the given level-order splits."""
    return TrainedModel(
        scenario=ScenarioSpec("pair", (PointMass(0.0, 1.0), PointMass(1.0, 0.0))),
        slabs=SlabStructure(np.arange(num_slabs - 1, dtype=np.float64)),
        forest=SearchForest(num_slabs, 2, splits),
        config=TrainingConfig(),
        seed=0,
        entropy_per_point=np.array([0.0, 1.5]),
    )


@pytest.mark.parametrize(
    "num_slabs, splits, dtype",
    [
        (65535, [65534, -1, -1], "<u2"),  # the top slab one below the -1 sentinel
        (70000, [69999, 65535, -1, -1, -1], "<i4"),  # root 1's split equals the "<u2" sentinel
    ],
)
def test_forest_column_width_round_trips(tmp_path, num_slabs, splits, dtype):
    model = _hand_built_model(num_slabs, splits)
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["forest"]["dtype"] == dtype
    loaded = load_model(path)
    assert loaded.forest.split.tolist() == splits
    assert loaded.forest.right == model.forest.right


def test_load_model_rejects_uint16_forest_over_too_many_slabs(tmp_path):
    obj = _hand_built_model(70000, [69999, -1, -1]).to_dict()
    obj["forest"] = _encode([69999 - 65536, -1, -1], "<u2")  # "<u2" cannot tell slab 65535 from -1
    with pytest.raises(ValueError, match="forest dtype <u2 cannot hold the splits of a model with 70000 slabs"):
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


def test_loaded_model_drops_frequencies(tmp_path, model_cache):
    model = model_cache("uniform_square", 16)
    assert model.frequencies is not None
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path).frequencies is None
