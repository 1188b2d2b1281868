import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_distributions import _dist_strategy, _spec

from simax import (
    FrequencyTable,
    RunStats,
    SearchForest,
    SlabStructure,
    TrainedModel,
    TrainingConfig,
    brute_force_maxima,
    entropy_proxy,
    load_model,
    run_maxima,
    sample_input,
    save_model,
    sort_scan_maxima,
    train_model,
    verify_certificate,
)
from simax.distributions import ScenarioSpec, SeededRng
from simax import engine
from simax.engine import EngineState, make_engine_state, update_step
from simax.geometry import Certificate, InputSet


def _fallback_model(n: int, boundaries, splits=None) -> TrainedModel:
    """A model over the given level-order forest splits; by default every tree is a bare fallback root (pure bisection)."""
    slabs = SlabStructure(boundaries)
    forest = SearchForest(slabs.num_slabs, n, [-1] * n if splits is None else splits)
    spec = ScenarioSpec("fixed", kind=np.zeros(n, dtype=int), mass_x=np.arange(float(n)), mass_y=np.zeros(n))
    return TrainedModel(
        scenario=spec,
        slabs=slabs,
        forest=forest,
        config=TrainingConfig(),
        seed=0,
        entropy_per_point=np.zeros(n),
    )


# ---------------------------------------------------------------------------
# entropy proxy


def test_entropy_proxy_frozen_example():
    freq = FrequencyTable(counts=np.array([[8, 0], [4, 4]], dtype=np.uint16), rounds=8)
    assert entropy_proxy(freq).tolist() == [0.0, 1.0]


def test_entropy_proxy_rejects_empty_table():
    freq = FrequencyTable(counts=np.zeros((2, 3), dtype=np.uint16), rounds=0)
    with pytest.raises(ValueError, match="rounds"):
        entropy_proxy(freq)


def _entropy_reference(freq: FrequencyTable) -> np.ndarray:
    """-sum of p*log2(p) over each row, elementwise on the whole table, with 0*log2(0) as 0."""
    p = freq.counts.astype(np.float64) / freq.rounds
    with np.errstate(divide="ignore", invalid="ignore"):
        term = p * np.log2(p)
    term[~np.isfinite(term)] = 0.0
    return -term.sum(axis=1)


def _multinomial_table(rows: int, slabs: int, rounds: int, dtype) -> FrequencyTable:
    gen = np.random.Generator(np.random.PCG64(8))
    return FrequencyTable(counts=gen.multinomial(rounds, gen.dirichlet(np.ones(slabs)), size=rows).astype(dtype), rounds=rounds)


@pytest.mark.parametrize(
    "freq",
    [
        _multinomial_table(40, 50, 70_000, np.uint32),  # counts past uint16
        _multinomial_table(300, 300, 2_000, np.uint16),  # more than one row block
        FrequencyTable(counts=np.array([[9], [0]], dtype=np.uint16), rounds=9),  # one slab: -0.0
        FrequencyTable(counts=np.array([[3, 0, 5], [0, 0, 1]], dtype=np.uint32), rounds=10**12),  # no 10**12-entry table
    ],
    ids=["uint32", "blocks", "one-slab", "rounds-1e12"],
)
def test_entropy_proxy_is_bit_exact(freq):
    got = entropy_proxy(freq)
    assert got.tobytes() == _entropy_reference(freq).tobytes()
    if freq.num_slabs == 1:
        assert np.signbit(got).all()  # a row's terms are all 0.0, so its negated sum is -0.0


def test_entropy_is_maximal_for_uniform_rows():
    freq = FrequencyTable(counts=np.full((1, 16), 4, dtype=np.uint16), rounds=64)
    assert entropy_proxy(freq)[0] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# update_step unit behavior


def _bare_state(points) -> EngineState:
    return EngineState(xs=[float(p[0]) for p in points], ys=[float(p[1]) for p in points])


def test_update_step_folds_a_dominated_chain():
    state = _bare_state([(1, 1), (2, 2), (3, 3)])
    state.buffer = [0, 1, 2]
    stats = RunStats()
    update_step(state, stats)
    assert state.maxima_rev == [2]
    assert state.dominators == {0: 2, 1: 2}
    assert state.phat == 2
    assert stats.update_sorted_points == 3
    assert stats.dominance_checks == 2
    assert state.buffer == []


def test_update_step_keeps_a_staircase_in_order():
    state = _bare_state([(1, 3), (2, 2), (3, 1)])
    state.buffer = [2, 0, 1]  # arbitrary arrival order
    stats = RunStats()
    update_step(state, stats)
    assert state.maxima_rev == [2, 1, 0]  # rightmost first
    assert state.phat == 0  # leftmost maximum carries the largest y
    assert state.dominators == {}
    assert stats.update_sorted_points == 3
    assert stats.update_sort_comparisons > 0


def test_update_step_seeds_sweep_with_previous_leftmost_maximum():
    state = _bare_state([(5, 5), (4, 1), (3, 6)])
    state.maxima_rev = [0]
    state.phat = 0
    state.buffer = [1, 2]
    stats = RunStats()
    update_step(state, stats)
    # (4,1) dies against the old maximum, (3,6) rises above it
    assert state.dominators == {1: 0}
    assert state.maxima_rev == [0, 2]
    assert state.phat == 2


def _reference_update_step(state: EngineState, stats: RunStats) -> None:
    """update_step as it was before its short-buffer paths: every buffer goes through _merge_sort."""
    buf = state.buffer
    xs, ys = state.xs, state.ys
    keyed, comparisons = engine._merge_sort([(xs[i], ys[i], i) for i in buf])
    stats.update_sorted_points += len(buf)
    stats.update_sort_comparisons += comparisons
    r = state.phat
    rx = xs[r] if r >= 0 else 0.0
    ry = ys[r] if r >= 0 else 0.0
    for px, py, i in reversed(keyed):
        if r >= 0:
            stats.dominance_checks += 1
            if rx >= px and ry >= py and (rx > px or ry > py):
                state.dominators[i] = r
                continue
            if py > ry:
                r, rx, ry = i, px, py
        else:
            r, rx, ry = i, px, py
        state.maxima_rev.append(i)
    state.phat = r
    buf.clear()


def test_update_step_short_buffers_fold_as_the_merge_sort_reference():
    # every buffer of 1-4 points drawn from a 3x3 grid (duplicates, equal x
    # and equal y included), arriving in index order and in reverse, on a
    # fresh staircase and on one whose leftmost maximum (3, 1) lies right of
    # the grid and dominates its lower rows
    grid = [(x, y) for x in range(3) for y in range(3)]
    for k in range(1, 5):
        for pick, arrival, prior in itertools.product(
            itertools.product(grid, repeat=k), (range(k), range(k - 1, -1, -1)), (None, (3, 1))
        ):
            folds = []
            for fold in (update_step, _reference_update_step):
                state = _bare_state(list(pick) + ([prior] if prior else []))
                if prior:
                    state.maxima_rev, state.phat = [k], k
                state.buffer = list(arrival)
                stats = RunStats()
                fold(state, stats)
                folds.append((state.maxima_rev, state.dominators, state.phat, state.buffer, stats))
            assert folds[0] == folds[1], (pick, list(arrival), prior)


# ---------------------------------------------------------------------------
# full runs


def test_engine_state_validates_sizes():
    model = _fallback_model(4, [1.0, 2.0])
    with pytest.raises(ValueError, match="n=4"):
        make_engine_state(model, InputSet([0.0], [0.0]))


def test_pure_fallback_model_matches_oracle():
    model = _fallback_model(6, [1.0, 2.0, 3.0, 4.0])
    inp = InputSet([0.5, 1.5, 2.5, 3.5, 4.5, 2.0], [3.0, 5.0, 1.0, 4.0, 2.0, 6.0])
    stats = RunStats()
    cert = run_maxima(model, inp, stats, debug_invariants=True)
    assert cert.maxima_set() == brute_force_maxima(inp).maxima_set()
    assert verify_certificate(inp, cert)
    assert stats.tree_steps > 0


def test_hand_built_model_round_trips_through_a_file(tmp_path):
    # a model file records only (config, seed), not round counts that a hand-built model never ran
    model = _fallback_model(6, [1.0, 2.0, 3.0, 4.0])
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert loaded.to_bytes() == model.to_bytes()


def test_trained_engine_agrees_with_both_oracles(model_cache):
    for kind in ("uniform_square", "staircase_line", "two_level"):
        model = model_cache(kind, 64)
        for seed in range(5):
            inp = sample_input(model.scenario, SeededRng(seed))
            cert = run_maxima(model, inp, debug_invariants=True)
            assert verify_certificate(inp, cert)
            assert cert.maxima_set() == brute_force_maxima(inp).maxima_set()
            assert cert.maxima == sort_scan_maxima(inp).maxima


@settings(deadline=None)
@given(dists=st.lists(_dist_strategy(), min_size=1, max_size=10), seed=st.integers(0, 2**16))
def test_trained_engine_matches_sort_scan_on_custom_scenarios(dists, seed):
    # quarter-grid coordinates: point masses sit on slab boundaries, and x and y ties are common
    spec = _spec("custom", dists)
    model = train_model(spec, TrainingConfig(rounds_cap=20), seed=seed)
    for t in range(3):
        inp = sample_input(spec, SeededRng(seed + t))
        cert = run_maxima(model, inp, debug_invariants=True)
        assert cert.maxima == sort_scan_maxima(inp).maxima
        assert verify_certificate(inp, cert)


def test_duplicate_heavy_input_is_handled(model_cache):
    # two_level draws collide constantly: exact duplicate atoms must all be
    # kept maximal and the certificate must still verify
    model = model_cache("two_level", 16)
    for seed in range(20):
        inp = sample_input(model.scenario, SeededRng(seed))
        cert = run_maxima(model, inp, debug_invariants=True)
        assert verify_certificate(inp, cert)
        assert cert.maxima_set() == brute_force_maxima(inp).maxima_set()


def test_run_is_deterministic_and_instrumented(model_cache):
    model = model_cache("uniform_square", 256)
    inp = sample_input(model.scenario, SeededRng(11))
    s1, s2 = RunStats(), RunStats()
    c1 = run_maxima(model, inp, s1)
    c2 = run_maxima(model, inp, s2)
    assert c1 == c2
    assert s1 == s2
    assert s1.find_max_scans == model.slabs.num_slabs
    assert s1.decrease_keys <= s1.tree_steps
    assert s1.update_sorted_points >= len(c1.maxima)  # every maximum passes through the buffer
    depth_cap = (1 + 3 * model.config.epsilon) * math.log2(model.slabs.num_slabs) + 2
    assert s1.tree_steps <= model.n * (depth_cap + 1)


@pytest.mark.parametrize("kind", ["two_level", "uniform_square"])
def test_sweep_reads_each_point_once_per_bucket_in_decreasing_order(model_cache, monkeypatch, kind):
    # a point enters the sweep once at the top and once per move to a lower
    # bucket, and each move lands strictly left of the bucket it came from
    model = model_cache(kind, 256)
    real, states = engine.make_engine_state, []

    def captured(*args):
        states.append(real(*args))
        return states[-1]

    monkeypatch.setattr(engine, "make_engine_state", captured)
    stats = RunStats()
    run_maxima(model, sample_input(model.scenario, SeededRng(5)), stats)
    buckets = states[0].buckets
    assert sum(len(b) for b in buckets) == model.n + stats.decrease_keys
    seen: dict[int, list[int]] = {}
    for m in range(len(buckets) - 1, -1, -1):
        for i in buckets[m]:
            seen.setdefault(i, []).append(m)
    assert sorted(seen) == list(range(model.n))
    assert all(a > b for ms in seen.values() for a, b in zip(ms, ms[1:]))


def test_stats_accumulate_across_runs(model_cache):
    model = model_cache("uniform_square", 64)
    inp = sample_input(model.scenario, SeededRng(1))
    stats = RunStats()
    run_maxima(model, inp, stats)
    first = stats.tree_steps
    run_maxima(model, inp, stats)
    assert stats.tree_steps == 2 * first


def test_debug_run_checks_the_frontier_at_every_move(model_cache, monkeypatch):
    model = model_cache("two_level", 256)
    inp = sample_input(model.scenario, SeededRng(5))
    real_state, real_check, states, checked = engine.make_engine_state, engine._check_frontier_invariant, [], []

    def captured(*args):
        states.append(real_state(*args))
        return states[-1]

    def counted(state, ref_rev, ref_slab, lam_hat):
        checked.append(lam_hat)
        real_check(state, ref_rev, ref_slab, lam_hat)

    monkeypatch.setattr(engine, "make_engine_state", captured)
    monkeypatch.setattr(engine, "_check_frontier_invariant", counted)
    run_maxima(model, inp, debug_invariants=True)
    # after the move to every nonempty bucket below the top, empty buffer or not, and after the final fold
    buckets = states[0].buckets
    moves = [m for m in range(len(buckets) - 2, -1, -1) if buckets[m]]
    assert len(moves) > 2 and checked == moves + [-1]


def test_debug_run_computes_one_reference_per_run(model_cache, monkeypatch):
    model = model_cache("two_level", 256)
    calls = []
    real = engine.sort_scan_maxima
    monkeypatch.setattr(engine, "sort_scan_maxima", lambda inp: calls.append(1) or real(inp))
    run_maxima(model, sample_input(model.scenario, SeededRng(5)), debug_invariants=True)
    assert len(calls) == 1


def test_debug_run_catches_an_update_that_drops_a_maximum(model_cache, monkeypatch):
    model = model_cache("two_level", 256)
    inp = sample_input(model.scenario, SeededRng(5))
    real_update = engine.update_step

    def lossy_update(state, stats):
        real_update(state, stats)
        if len(state.maxima_rev) > 1:
            state.maxima_rev.pop(0)

    monkeypatch.setattr(engine, "update_step", lossy_update)
    run_maxima(model, inp)  # unchecked, the broken staircase goes by unnoticed
    with pytest.raises(AssertionError, match="frontier invariant"):
        run_maxima(model, inp, debug_invariants=True)


def test_debug_run_catches_an_update_that_reorders_the_staircase(model_cache, monkeypatch):
    # the staircase keeps its length and its members; only two older entries trade places
    model = model_cache("two_level", 256)
    inp = sample_input(model.scenario, SeededRng(5))
    real_update = engine.update_step

    def swapping_update(state, stats):
        real_update(state, stats)
        if len(state.maxima_rev) > 2:
            state.maxima_rev[0], state.maxima_rev[1] = state.maxima_rev[1], state.maxima_rev[0]

    monkeypatch.setattr(engine, "update_step", swapping_update)
    with pytest.raises(AssertionError, match=r"frontier invariant broken at slab \d+: staircase \("):
        run_maxima(model, inp, debug_invariants=True)


def test_single_occupied_slab_degenerates_gracefully():
    # all points share one leaf slab: the whole run is one buffered update
    model = _fallback_model(3, [10.0])
    inp = InputSet([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    cert = run_maxima(model, inp, debug_invariants=True)
    assert cert.maxima_set() == brute_force_maxima(inp).maxima_set()
    assert verify_certificate(inp, cert)


def _reference_run_maxima(model: TrainedModel, inp: InputSet, stats: RunStats) -> tuple:
    """run_maxima as it was before the top-bucket drain: one per-point loop over one list per slab; returns (certificate, buckets)."""
    n, top = inp.n, model.slabs.num_slabs - 1
    buckets = [()] * top + [list(range(n))]
    state = EngineState(xs=inp.xs.tolist(), ys=inp.ys.tolist(), node=list(range(n)), slab_lo=[0] * n)
    xs, ys, node, slab_lo = state.xs, state.ys, state.node, state.slab_lo
    split, right, blist = model.forest.split, model.forest.right, model.slabs.boundary_list()
    lam_hat, phat, hx, hy = top, -1, -1, -1
    for m in range(top, -1, -1):
        for i in buckets[m]:
            if m < lam_hat:
                lam_hat = m
                if state.buffer:
                    update_step(state, stats)
                    phat = state.phat
                    hx, hy = xs[phat], ys[phat]
            px, py = xs[i], ys[i]
            lo, hi, nid = slab_lo[i], m, node[i]
            while True:
                if phat >= 0:
                    stats.dominance_checks += 1
                    if hx >= px and hy >= py and (hx > px or hy > py):
                        state.dominators[i] = phat
                        break
                if lo != hi:
                    stats.tree_steps += 1
                    s = split[nid]
                    if s < 0:
                        mid = (lo + hi) // 2
                        if px < blist[mid]:
                            hi = mid
                        else:
                            lo = mid + 1
                    elif s > lo and px < blist[s - 1]:
                        hi = s - 1
                        nid = right[nid] - 1
                    elif s < hi and px >= blist[s]:
                        lo = s + 1
                        nid = right[nid]
                    else:
                        lo = hi = s
                    if hi < m:
                        if buckets[hi]:
                            buckets[hi].append(i)
                        else:
                            buckets[hi] = [i]
                        stats.decrease_keys += 1
                        slab_lo[i], node[i] = lo, nid
                        break
                if lo == hi:
                    state.buffer.append(i)
                    break
    if state.buffer:
        update_step(state, stats)
    stats.find_max_scans += len(buckets)
    return Certificate(maxima=tuple(reversed(state.maxima_rev)), dominators=state.dominators), buckets


def _assert_runs_as_reference(model: TrainedModel, inp: InputSet, debug_invariants: bool = False) -> EngineState:
    """Assert that run_maxima gives the reference's certificate, dominator order, counters and bucket reads; return its state."""
    real, states, stats = engine.make_engine_state, [], RunStats()
    with pytest.MonkeyPatch.context() as monkeypatch:  # capture the run's state, to read its buckets afterwards
        monkeypatch.setattr(engine, "make_engine_state", lambda *args: states.append(real(*args)) or states[-1])
        cert = run_maxima(model, inp, stats, debug_invariants=debug_invariants)
    ref_stats = RunStats()
    ref, ref_buckets = _reference_run_maxima(model, inp, ref_stats)
    assert cert.maxima == ref.maxima
    assert list(cert.dominators.items()) == list(ref.dominators.items())  # insertion order too
    assert stats == ref_stats
    assert [list(b) for b in states[0].buckets] == [list(b) for b in ref_buckets]
    return states[0]


@st.composite
def _tree(draw, lo: int, hi: int, depth: int):
    """One partial search tree over slabs [lo, hi]: None if unexpanded, else (split, children present, left first)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return None
    s = draw(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)))  # splits at either end are common
    return s, [draw(_tree(a, b, depth - 1)) for a, b in ((lo, s - 1), (s + 1, hi)) if a <= b]


def _level_order(trees) -> list[int]:
    splits, level = [], list(trees)
    while level:
        splits += [-1 if t is None else t[0] for t in level]
        level = [c for t in level if t is not None for c in t[1]]
    return splits


@st.composite
def _forest_case(draw):
    """A hand-built model (1-6 boundaries, one position up to 7) and an input full of boundary values, -0.0 and duplicates."""
    bounds = sorted(draw(st.sets(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=6)))
    n = draw(st.integers(1, 7))
    trees = [draw(_tree(0, len(bounds), draw(st.integers(0, 4)))) for _ in range(n)]
    xs = draw(st.lists(st.sampled_from(bounds + [-0.0, -2.0, 0.125, 0.75, 3.0]), min_size=n, max_size=n))
    ys = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0]), min_size=n, max_size=n))
    return _fallback_model(n, bounds, _level_order(trees)), InputSet(xs, ys)


@settings(deadline=None, max_examples=300)
@given(case=_forest_case())
@example(case=(_fallback_model(1, [0.0]), InputSet([-0.0], [0.0])))  # one position, a bare root, -0.0 on the 0.0 boundary
@example(  # roots split at their interval's left end, right end, not at all, and inside; duplicate points
    case=(_fallback_model(4, [0.0, 1.0, 2.0], [0, 3, -1, 1, -1, -1, -1, -1]), InputSet([1.0, 1.0, 2.0, -0.0], [1.0, 1.0, 0.0, 2.0]))
)
def test_run_maxima_matches_the_per_point_reference_on_hand_built_forests(case):
    # SlabStructure needs a boundary, so the fewest slabs a model has is two (one boundary)
    model, inp = case
    _assert_runs_as_reference(model, inp)
    _assert_runs_as_reference(model, inp, debug_invariants=True)


@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_run_maxima_matches_the_per_point_reference_on_trained_models(model_cache, kind):
    model = model_cache(kind, 256)
    for seed in range(3):
        _assert_runs_as_reference(model, sample_input(model.scenario, SeededRng(seed)))


def test_run_maxima_matches_the_per_point_reference_on_other_scenarios_inputs(model_cache):
    # a model certifying another scenario's inputs locates them badly, so a
    # slab holding drained points often gets later arrivals too, which the
    # sweep reads after them from its heap of occupied slabs
    kinds = ("uniform_square", "staircase_line", "two_level")
    late = 0
    for kind, other in itertools.permutations(kinds, 2):
        model, spec = model_cache(kind, 256), model_cache(other, 256).scenario
        for seed in range(3):
            state = _assert_runs_as_reference(model, sample_input(spec, SeededRng(seed)))
            late += len(set(state.drained_slab) & {m for m, a in enumerate(state.arrivals) if a})
    assert late > 0


def _misplace_first_moved_point(state, slab):
    i = state.drained[0]
    state.slab_lo[i] = slab[i] + 1  # an interval that starts right of the point's slab


def _swap_first_moved_points(state, slab):
    state.drained[:2], state.drained_slab[:2] = state.drained[1::-1], state.drained_slab[1::-1]  # out of sweep order


def _drop_first_moved_point(state, slab):
    del state.drained[0], state.drained_slab[0]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_misplace_first_moved_point, r"top-bucket drain put point \d+ of slab \d+ in interval"),
        (_drop_first_moved_point, "moved"),
        (_swap_first_moved_points, "moved"),
    ],
    ids=["wrong-interval", "dropped-point", "swapped-points"],
)
def test_debug_run_catches_a_drain_that_misplaces_a_point(model_cache, monkeypatch, corrupt, message):
    model = model_cache("uniform_square", 256)
    inp = sample_input(model.scenario, SeededRng(5))
    real_drain = engine._drain_top

    def broken_drain(state, model, xs):
        out = real_drain(state, model, xs)
        corrupt(state, model.slabs.locate_array(xs))
        return out

    monkeypatch.setattr(engine, "_drain_top", broken_drain)
    with pytest.raises(AssertionError, match=message):
        run_maxima(model, inp, debug_invariants=True)


# frozen: the exact counters and maxima of one run per scenario at n=256
# (model seed 101, input seed 5), recorded before the search trees moved into
# one flat forest; maxima as (count, first 16 hex digits of sha256(repr)),
# then the same digest of sorted(dominators.items()), recorded before empty
# frontier moves stopped calling update_step
PINNED_RUNS = {
    "uniform_square": (
        dict(tree_steps=530, dominance_checks=288, decrease_keys=271, find_max_scans=257,
             update_sorted_points=6, update_sort_comparisons=0),
        6, "50c0111937f1e94e", "1db9b7d436907245",
    ),
    "staircase_line": (
        dict(tree_steps=383, dominance_checks=382, decrease_keys=255, find_max_scans=257,
             update_sorted_points=128, update_sort_comparisons=0),
        128, "b6f3b7263babc871", "0852315fac900163",
    ),
    "two_level": (
        dict(tree_steps=329, dominance_checks=390, decrease_keys=257, find_max_scans=257,
             update_sorted_points=137, update_sort_comparisons=32),
        137, "d94408db782ec8ee", "c195a8309f0458fd",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_RUNS))
def test_pinned_run_counters_and_maxima(model_cache, kind):
    model = model_cache(kind, 256)
    stats = RunStats()
    cert = run_maxima(model, sample_input(model.scenario, SeededRng(5)), stats)
    counters, count, digest, dominators_digest = PINNED_RUNS[kind]
    assert dataclasses.asdict(stats) == counters
    assert len(cert.maxima) == count
    assert hashlib.sha256(repr(cert.maxima).encode()).hexdigest()[:16] == digest
    assert hashlib.sha256(repr(sorted(cert.dominators.items())).encode()).hexdigest()[:16] == dominators_digest


@pytest.mark.parametrize(
    "kind, n",
    [pytest.param(kind, 256, id=kind) for kind in sorted(PINNED_RUNS)]
    + [pytest.param(kind, 8192, id=f"{kind}-8192") for kind in ("staircase_line", "uniform_square")],
)
def test_debug_run_gives_the_plain_run_certificate_and_counters(model_cache, kind, n):
    # a debug run takes the plain run's steps and only adds checks against its reference
    model = model_cache(kind, n)
    for seed in range(5):
        inp = sample_input(model.scenario, SeededRng(seed))
        plain, debug = RunStats(), RunStats()
        assert run_maxima(model, inp, plain) == run_maxima(model, inp, debug, debug_invariants=True)
        assert plain == debug
