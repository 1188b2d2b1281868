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
    build_scenario,
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
    if freq.counts.shape[1] == 1:
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
    # each read below the top slab is one decrease-key and costs at most one
    # check; each check in the update sweep is one buffered point
    assert s1.dominance_checks <= s1.decrease_keys + s1.update_sorted_points
    assert s1.update_sorted_points >= len(c1.maxima)  # every maximum passes through the buffer
    depth_cap = (1 + 3 * model.config.epsilon) * math.log2(model.slabs.num_slabs) + 2
    assert s1.tree_steps <= model.n * (depth_cap + 1)


def _record_reads(monkeypatch) -> list[list[tuple[int, int]]]:
    """Record the reads of every later run_maxima call, one list per run.

    A run's list is (top, i) for every point i in index order, the order
    the top drain steps them in, then each (slab, point) that engine._reads
    yields as the sweep takes it.
    """
    real, runs = engine._reads, []

    def recording(state, occupied):
        reads = [(len(state.arrivals), i) for i in range(len(state.xs))]
        runs.append(reads)
        for read in real(state, occupied):
            reads.append(read)
            yield read

    monkeypatch.setattr(engine, "_reads", recording)
    return runs


@pytest.mark.parametrize("kind", ["two_level", "uniform_square"])
def test_sweep_reads_each_point_once_per_bucket_in_decreasing_order(model_cache, monkeypatch, kind):
    # a point enters the sweep once at the top and once per move to a lower
    # bucket, and each move lands strictly left of the bucket it came from
    model = model_cache(kind, 256)
    recorded = _record_reads(monkeypatch)
    stats = RunStats()
    run_maxima(model, sample_input(model.scenario, SeededRng(5)), stats)
    (reads,) = recorded
    assert len(reads) == model.n + stats.decrease_keys
    assert all(a >= b for (a, _), (b, _) in zip(reads, reads[1:]))  # one pass, from the top slab down
    seen: dict[int, list[int]] = {}
    for m, i in reads:
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
    real_check, checked = engine._check_frontier_invariant, []

    def counted(state, ref_rev, ref_slab, lam_hat):
        checked.append(lam_hat)
        real_check(state, ref_rev, ref_slab, lam_hat)

    recorded = _record_reads(monkeypatch)
    monkeypatch.setattr(engine, "_check_frontier_invariant", counted)
    run_maxima(model, inp, debug_invariants=True)
    # after the move to every slab below the top that the sweep reads, empty buffer or not, and after the final fold
    top = model.slabs.num_slabs - 1
    moves = sorted({m for m, _ in recorded[0] if m < top}, reverse=True)
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


def test_debug_run_catches_a_leftmost_maximum_left_of_the_frontier(model_cache, monkeypatch):
    # the sweep tests dominance by y alone, which needs the leftmost maximum right of the slab being read
    model = model_cache("uniform_square", 256)
    inp = sample_input(model.scenario, SeededRng(5))
    real_update = engine.update_step

    def misplacing_update(state, stats):
        real_update(state, stats)
        state.phat = state.drained[-1]  # a point of the lowest slab the drain reached

    monkeypatch.setattr(engine, "update_step", misplacing_update)
    with pytest.raises(AssertionError, match=r"leftmost maximum \d+ lies in slab \d+, not right of frontier slab \d+"):
        run_maxima(model, inp, debug_invariants=True)


def test_single_occupied_slab_degenerates_gracefully():
    # all points share one leaf slab: the whole run is one buffered update
    model = _fallback_model(3, [10.0])
    inp = InputSet([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    cert = run_maxima(model, inp, debug_invariants=True)
    assert cert.maxima_set() == brute_force_maxima(inp).maxima_set()
    assert verify_certificate(inp, cert)


def _reference_run_maxima(model: TrainedModel, inp: InputSet, stats: RunStats) -> tuple:
    """run_maxima as it was before the top-bucket drain: one per-point loop over one list per slab; returns (certificate, reads).

    reads lists the loop's (slab, point) reads in the order it makes them.
    Once a maximum is known it checks each read once, before its walk,
    with all four coordinate comparisons, so it is the differential witness
    for the engine's test on y alone.
    """
    n, top = inp.n, model.slabs.num_slabs - 1
    buckets = [()] * top + [list(range(n))]
    state = EngineState(xs=inp.xs.tolist(), ys=inp.ys.tolist(), node=list(range(n)), slab_lo=[0] * n)
    xs, ys, node, slab_lo = state.xs, state.ys, state.node, state.slab_lo
    split, right, blist = model.forest.split, model.forest.right, model.slabs.boundary_list()
    lam_hat, phat, hx, hy = top, -1, -1, -1
    reads = []
    for m in range(top, -1, -1):
        for i in buckets[m]:
            reads.append((m, i))
            if m < lam_hat:
                lam_hat = m
                if state.buffer:
                    update_step(state, stats)
                    phat = state.phat
                    hx, hy = xs[phat], ys[phat]
            px, py = xs[i], ys[i]
            if phat >= 0:
                stats.dominance_checks += 1
                if hx >= px and hy >= py and (hx > px or hy > py):
                    state.dominators[i] = phat
                    continue
            lo, hi, nid = slab_lo[i], m, node[i]
            while True:
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
    return Certificate(maxima=tuple(reversed(state.maxima_rev)), dominators=state.dominators), reads


def _assert_runs_as_reference(
    model: TrainedModel, inp: InputSet, debug_invariants: bool = False
) -> tuple[EngineState, RunStats]:
    """Assert that run_maxima gives the reference's certificate, dominator order, counters and reads; return its state and stats."""
    real, states, stats = engine.make_engine_state, [], RunStats()
    with pytest.MonkeyPatch.context() as monkeypatch:  # capture the run's state and reads
        monkeypatch.setattr(engine, "make_engine_state", lambda *args: states.append(real(*args)) or states[-1])
        recorded = _record_reads(monkeypatch)
        cert = run_maxima(model, inp, stats, debug_invariants=debug_invariants)
    ref_stats = RunStats()
    ref, ref_reads = _reference_run_maxima(model, inp, ref_stats)
    assert cert.maxima == ref.maxima
    assert list(cert.dominators.items()) == list(ref.dominators.items())  # insertion order too
    assert stats == ref_stats
    assert recorded == [ref_reads]
    return states[0], stats


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
    ys = draw(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 1.0, 2.0]), min_size=n, max_size=n))
    return _fallback_model(n, bounds, _level_order(trees)), InputSet(xs, ys)


@settings(deadline=None, max_examples=300)
@given(case=_forest_case())
@example(case=(_fallback_model(1, [0.0]), InputSet([-0.0], [0.0])))  # one position, a bare root, -0.0 on the 0.0 boundary
@example(case=(_fallback_model(2, [0.0]), InputSet([-1.0, -0.5], [-2.0, -3.0])))  # no maximum yet below the top, y < -1
@example(  # roots split at their interval's left end, right end, not at all, and inside; duplicate points
    case=(_fallback_model(4, [0.0, 1.0, 2.0], [0, 3, -1, 1, -1, -1, -1, -1]), InputSet([1.0, 1.0, 2.0, -0.0], [1.0, 1.0, 0.0, 2.0]))
)
@example(  # two slabs: roots 0 and 3 split on the top slab, a +inf threshold at depth 0 of their spines
    case=(
        _fallback_model(4, [0.0], _level_order([(1, [None]), None, (0, [None]), (1, [None])])),
        InputSet([0.5, 0.0, -0.0, -1.0], [1.0, 2.0, 3.0, 4.0]),
    )
)
@example(  # spines of 2, 1 (+inf), 5 and 2 steps over split and bare roots; points 0 and 3 are located by a right step
    case=(
        _fallback_model(
            4,
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            _level_order([None, (6, [None]), (0, [(1, [(2, [None])])]), (3, [None, (5, [None, None])])]),
        ),
        InputSet([5.5, 5.0, 3.5, 6.0], [1.0, 2.0, 0.5, 0.0]),
    )
)
def test_run_maxima_matches_the_per_point_reference_on_hand_built_forests(case):
    # SlabStructure needs a boundary, so the fewest slabs a model has is two (one boundary)
    model, inp = case
    _assert_runs_as_reference(model, inp)
    _assert_runs_as_reference(model, inp, debug_invariants=True)


def test_a_model_whose_forest_changes_builds_its_own_spine_table(model_cache, monkeypatch):
    shared = model_cache("uniform_square", 256)
    other = model_cache("staircase_line", 256).forest
    inp = sample_input(shared.scenario, SeededRng(3))
    run_maxima(shared, inp)  # the shared model has its table from here on
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.forest = other
    real, built = engine._spine_table, []
    monkeypatch.setattr(engine, "_spine_table", lambda model: built.append(model) or real(model))
    variant = dataclasses.replace(shared, forest=other)
    _assert_runs_as_reference(variant, inp)  # builds the table of the staircase_line forest
    _assert_runs_as_reference(variant, inp, debug_invariants=True)
    _assert_runs_as_reference(shared, inp)
    assert len(built) == 1 and built[0] is variant


def test_spine_table_is_built_on_a_models_first_run_only(monkeypatch, tmp_path):
    real, built = engine._spine_table, []
    monkeypatch.setattr(engine, "_spine_table", lambda model: built.append(model) or real(model))
    spec = build_scenario("uniform_square", 64)
    model = train_model(spec, seed=3)
    assert built == []
    save_model(model, tmp_path / "m.simax")
    loaded = load_model(tmp_path / "m.simax")
    assert built == []
    for seed in range(5):
        run_maxima(loaded, sample_input(spec, SeededRng(seed)))
    assert len(built) == 1 and built[0] is loaded


def test_spine_table_grows_with_the_forest_not_with_its_deepest_spine():
    # tree 0 splits at its interval's left end at every level, so its right
    # spine is num_slabs - 1 steps long; the other 63 trees are bare roots
    n, num_slabs = 64, 1024
    tree = None
    for s in range(num_slabs - 2, -1, -1):
        tree = (s, [tree])
    model = _fallback_model(n, np.arange(num_slabs - 1.0), _level_order([tree] + [None] * (n - 1)))
    xs = np.concatenate([[num_slabs], np.linspace(-1.0, num_slabs, n - 1)])
    _assert_runs_as_reference(model, InputSet(xs, np.linspace(1.0, 0.0, n)), debug_invariants=True)
    thr, lo, edge, left, start = model._spine
    assert np.diff(start, append=thr.size)[0] == num_slabs  # one entry per right step, plus the +inf one
    nodes = len(model.forest.split)
    entries = n + nodes + n * math.ceil(math.log2(num_slabs))
    assert thr.nbytes + lo.nbytes + edge.nbytes + left.nbytes + start.nbytes <= 16 * entries + 8 * n  # a dense table would take 1 MiB


def _reference_spine(model: TrainedModel, i: int) -> list[tuple[float, int, int, int]]:
    """Position i's spine walked one step at a time with Python scalars: (thr, lo, edge, left) per entry.

    A point that stops at an entry takes the per-point loop's step there:
    at a bare node it bisects [lo, top] and goes left below blist[mid] =
    padded[mid + 1], keeping its node; at a split s it goes left below
    blist[s - 1] = padded[s] to the left child right[j] - 1 (never, if s ==
    lo), else lands on s.  So edge, the first slab right of a left step, is
    mid + 1 or s, and top once lo == top, where the point is located.
    """
    top = model.slabs.num_slabs - 1
    split, right, padded = model.forest.split, model.forest.right, model.slabs.padded
    entries, j, lo = [], i, 0
    while True:
        s = split[j]
        pivot = (lo + top) // 2 if s < 0 else s
        edge = top if lo == top else pivot + 1 if s < 0 else s
        entries.append((float(padded[pivot + 1]), lo, edge, j if s < 0 else right[j] - 1))
        if pivot == top:  # padded[top + 1] is +inf: no point goes right of the top slab
            return entries
        lo, j = pivot + 1, j if s < 0 else right[j]


def _assert_spine_table_as_reference(model: TrainedModel) -> None:
    thr, lo, edge, left, start = model._spine
    ends = np.append(start[1:], thr.size)
    for i in range(model.n):
        got = list(zip(thr[start[i] : ends[i]].tolist(), *(c[start[i] : ends[i]].tolist() for c in (lo, edge, left))))
        assert got == _reference_spine(model, i), f"position {i}"
    assert left.dtype == np.intc and lo.dtype == edge.dtype == np.min_scalar_type(model.slabs.num_slabs - 1)


@settings(deadline=None, max_examples=200)
@given(case=_forest_case())
@example(case=(_fallback_model(1, [0.0]), None))  # two slabs, a bare root
@example(case=(_fallback_model(4, [0.0, 1.0, 2.0], [0, 3, -1, 1, -1, -1, -1, -1]), None))  # splits at lo, at top, inside
@example(  # two slabs: roots 0 and 3 split on the top slab, root 2 on slab 0 = lo
    case=(_fallback_model(4, [0.0], _level_order([(1, [None]), None, (0, [None]), (1, [None])])), None)
)
@example(  # split and bare roots whose spines run through a split at lo and end in a bare node or at top
    case=(
        _fallback_model(
            4,
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            _level_order([None, (6, [None]), (0, [(1, [(2, [None])])]), (3, [None, (5, [None, None])])]),
        ),
        None,
    )
)
def test_spine_table_stop_columns_match_a_step_by_step_walk(case):
    _assert_spine_table_as_reference(case[0])


@pytest.mark.parametrize(
    "num_slabs, dtype",
    [(2, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)],
)
def test_spine_table_lo_and_edge_are_as_narrow_as_the_top_slab(num_slabs, dtype):
    # root 0 splits at its lo end, slab 0, and root 1 at the top slab; root 2 bisects all the way up
    top = num_slabs - 1
    model = _fallback_model(3, np.arange(top, dtype=float), [0, top, -1, -1, -1])
    thr, lo, edge, left, start = model._spine
    assert lo.dtype == edge.dtype == dtype
    assert thr.itemsize + lo.itemsize + edge.itemsize + left.itemsize <= (16 if num_slabs <= 65536 else 20)
    _assert_spine_table_as_reference(model)


def _poison_unread_nodes(monkeypatch) -> list[int]:
    """Wrap the top drain so every point it leaves on a one-slab interval gets node 2**31 - 1, which no forest holds.

    Returns the list the wrapper appends each run's count of such points to.
    """
    real_drain, poisoned = engine._drain_top, []

    def poisoning_drain(state, model, xs):
        out = real_drain(state, model, xs)
        one_slab = list(state.buffer)  # located in the top slab
        one_slab += [i for i, hi in zip(state.drained, state.drained_slab) if state.slab_lo[i] == hi]
        for i in one_slab:
            state.node[i] = 2**31 - 1
        poisoned.append(len(one_slab))
        return out

    monkeypatch.setattr(engine, "_drain_top", poisoning_drain)
    return poisoned


@pytest.mark.parametrize("kind", ["uniform_square", "staircase_line", "two_level"])
def test_the_sweep_never_reads_the_node_of_a_point_the_drain_left_on_one_slab(model_cache, monkeypatch, kind):
    # the drain gives such a point whatever its stop entry's left column holds
    model = model_cache(kind, 256)
    poisoned = _poison_unread_nodes(monkeypatch)
    for seed in range(3):
        _assert_runs_as_reference(model, sample_input(model.scenario, SeededRng(seed)), debug_invariants=seed == 0)
    assert min(poisoned) > 0


@settings(deadline=None, max_examples=150)
@given(case=_forest_case())
def test_the_sweep_never_reads_the_node_of_a_point_the_drain_left_on_one_slab_on_hand_built_forests(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _poison_unread_nodes(monkeypatch)
        _assert_runs_as_reference(*case)


def _strided(a: np.ndarray) -> np.ndarray:
    wide = np.zeros((a.size, 3))
    wide[:, 1] = a
    return wide[:, 1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "layout",
    [_strided, _read_only, lambda a: a.astype(">f8"), lambda a: a[::-1].copy()[::-1]],
    ids=["strided", "read-only", "big-endian", "negative-stride"],
)
@pytest.mark.parametrize("kind", ["uniform_square", "two_level"])
def test_run_maxima_reads_any_float64_layout_as_a_contiguous_copy(model_cache, kind, layout):
    # the engine state copies xs through its bytes, so they must reach it as native, C-ordered float64
    model = model_cache(kind, 256)
    for seed in range(3):
        inp = sample_input(model.scenario, SeededRng(seed))
        plain, other = RunStats(), RunStats()
        expect = run_maxima(model, InputSet(inp.xs.copy(), inp.ys.copy()), plain)
        got = run_maxima(model, InputSet(layout(inp.xs), layout(inp.ys)), other, debug_invariants=True)
        assert got.maxima == expect.maxima
        assert list(got.dominators.items()) == list(expect.dominators.items())
        assert other == plain


@pytest.mark.parametrize("num_slabs", [65536, 65537])
def test_run_maxima_matches_the_per_point_reference_past_a_uint16_slab_key(num_slabs):
    # the drain sorts by top - hi, which needs 17 bits once num_slabs passes
    # 65536; root 0 splits at slab 1, so its point's first step leaves it at hi = 0
    model = _fallback_model(3, np.arange(num_slabs - 1, dtype=float), [1, -1, -1, -1, -1])
    _assert_runs_as_reference(model, InputSet([-1.0, 100.5, 1e9], [0.0, 2.0, 1.0]), debug_invariants=True)


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
            state, stats = _assert_runs_as_reference(model, sample_input(spec, SeededRng(seed)))
            assert stats.dominance_checks <= stats.decrease_keys + stats.update_sorted_points
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
# frontier moves stopped calling update_step; uniform_square's
# dominance_checks re-pinned when a walk stopped re-checking after each step
PINNED_RUNS = {
    "uniform_square": (
        dict(tree_steps=530, dominance_checks=276, decrease_keys=271, find_max_scans=257,
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
