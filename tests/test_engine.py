import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_distributions import _dist_strategy

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
from simax.distributions import PointMass, ScenarioSpec, SeededRng
from simax import engine
from simax.engine import EngineState, make_engine_state, update_step
from simax.geometry import InputSet


def _fallback_model(n: int, boundaries) -> TrainedModel:
    """A model whose every tree is a bare fallback root over all slabs: pure bisection engine."""
    slabs = SlabStructure(boundaries)
    forest = SearchForest(slabs.num_slabs, n, [-1] * n)
    spec = ScenarioSpec("fixed", tuple(PointMass(float(i), 0.0) for i in range(n)))
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
    state = EngineState(buckets=[[]], lam_hat=0)
    state.xs = [float(p[0]) for p in points]
    state.ys = [float(p[1]) for p in points]
    return state


def test_update_step_folds_a_dominated_chain():
    state = _bare_state([(1, 1), (2, 2), (3, 3)])
    state.buffer = [0, 1, 2]
    stats = RunStats()
    update_step(state, stats, -1)
    assert state.maxima_rev == [2]
    assert state.dominators == {0: 2, 1: 2}
    assert state.phat == 2
    assert stats.update_sorted_points == 3
    assert stats.dominance_checks == 2
    assert state.buffer == [] and state.lam_hat == -1


def test_update_step_keeps_a_staircase_in_order():
    state = _bare_state([(1, 3), (2, 2), (3, 1)])
    state.buffer = [2, 0, 1]  # arbitrary arrival order
    stats = RunStats()
    update_step(state, stats, 0)
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
    update_step(state, stats, -1)
    # (4,1) dies against the old maximum, (3,6) rises above it
    assert state.dominators == {1: 0}
    assert state.maxima_rev == [0, 2]
    assert state.phat == 2


def test_update_step_without_buffer_only_moves_the_frontier():
    state = _bare_state([(0, 0)])
    stats = RunStats()
    update_step(state, stats, 3)
    assert state.lam_hat == 3
    assert stats.update_sorted_points == 0


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
    assert loaded.to_dict() == model.to_dict()


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
    spec = ScenarioSpec("custom", tuple(dists))
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
    calls = {"check": 0, "update": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(engine, "_check_frontier_invariant", counted("check", engine._check_frontier_invariant))
    monkeypatch.setattr(engine, "update_step", counted("update", engine.update_step))
    run_maxima(model, inp, debug_invariants=True)
    # once before the first move, after every update_step, and never in between
    assert calls["update"] > 2 and calls["check"] == calls["update"] + 1


def test_debug_run_catches_an_update_that_drops_a_maximum(model_cache, monkeypatch):
    model = model_cache("two_level", 256)
    inp = sample_input(model.scenario, SeededRng(5))
    real_update = engine.update_step

    def lossy_update(state, stats, new_lam_hat):
        real_update(state, stats, new_lam_hat)
        if len(state.maxima_rev) > 1:
            state.maxima_rev.pop(0)

    monkeypatch.setattr(engine, "update_step", lossy_update)
    run_maxima(model, inp)  # unchecked, the broken staircase goes by unnoticed
    with pytest.raises(AssertionError, match="frontier invariant"):
        run_maxima(model, inp, debug_invariants=True)


def test_single_occupied_slab_degenerates_gracefully():
    # all points share one leaf slab: the whole run is one buffered update
    model = _fallback_model(3, [10.0])
    inp = InputSet([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    cert = run_maxima(model, inp, debug_invariants=True)
    assert cert.maxima_set() == brute_force_maxima(inp).maxima_set()
    assert verify_certificate(inp, cert)


# frozen: the exact counters and maxima of one run per scenario at n=256
# (model seed 101, input seed 5), recorded before the search trees moved into
# one flat forest; maxima as (count, first 16 hex digits of sha256(repr))
PINNED_RUNS = {
    "uniform_square": (
        dict(tree_steps=530, dominance_checks=288, decrease_keys=271, find_max_scans=257,
             update_sorted_points=6, update_sort_comparisons=0),
        6, "50c0111937f1e94e",
    ),
    "staircase_line": (
        dict(tree_steps=383, dominance_checks=382, decrease_keys=255, find_max_scans=257,
             update_sorted_points=128, update_sort_comparisons=0),
        128, "b6f3b7263babc871",
    ),
    "two_level": (
        dict(tree_steps=329, dominance_checks=390, decrease_keys=257, find_max_scans=257,
             update_sorted_points=137, update_sort_comparisons=32),
        137, "d94408db782ec8ee",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_RUNS))
def test_pinned_run_counters_and_maxima(model_cache, kind):
    model = model_cache(kind, 256)
    stats = RunStats()
    cert = run_maxima(model, sample_input(model.scenario, SeededRng(5)), stats)
    counters, count, digest = PINNED_RUNS[kind]
    assert dataclasses.asdict(stats) == counters
    assert len(cert.maxima) == count
    assert hashlib.sha256(repr(cert.maxima).encode()).hexdigest()[:16] == digest
