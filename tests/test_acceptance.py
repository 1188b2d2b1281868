"""Acceptance gate: nine numbered end-to-end checks at pinned tolerances.

Each test prints exactly one line, visible even under output capture:

    ACCEPTANCE <k>: PASS|FAIL - <measured numbers and their caps>

Constants marked frozen were calibrated once on this implementation and are
not to be adjusted to make a run pass.  Check 5 is a known honest failure:
on iid uniform inputs the number of points that ever reach the update buffer
grows like log n (only points whose y beats everything to their right
survive the scheduler's dominance filter), so the buffered-points-per-input
rate cannot be size-stable; the assertion is kept as stated rather than
weakened.
"""

import heapq
import math
import time

import numpy as np
from test_engine import _record_reads

from simax import (
    RunStats,
    SeededRng,
    audit_forest,
    build_scenario,
    build_slab_structure,
    brute_force_maxima,
    run_maxima,
    sample_input,
    simulate_restricted_search,
    sort_scan_maxima,
    verify_certificate,
)
from simax.cli import main
from simax.geometry import BaselineStats

KINDS = ("uniform_square", "staircase_line", "two_level")

SEARCH_C = 1.8  # frozen: restricted-search mean-ratio cap, calibrated on uniform_square
ENGINE_COST_C = 8.0  # per-run cap on tree_steps * eps / (n + total entropy)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_01_engine_matches_quadratic_oracle_everywhere(model_cache, capsys):
    t0 = time.perf_counter()
    runs = failures = 0
    for kind in KINDS:
        for n in (16, 64, 256, 1024):
            model = model_cache(kind, n)
            for seed in range(50):
                inp = sample_input(model.scenario, SeededRng(seed))
                cert = run_maxima(model, inp)
                runs += 1
                if not verify_certificate(inp, cert):
                    failures += 1
                elif cert.maxima_set() != brute_force_maxima(inp).maxima_set():
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(capsys, 1, ok, f"{runs - failures}/{runs} runs verified and matched the oracle in {elapsed:.1f}s (cap 60s)")


def test_02_leaf_slab_occupancy_second_moment_is_bounded(capsys):
    n = 4096
    spec = build_scenario("uniform_square", n)
    rng = SeededRng(202)
    k = math.ceil(math.log2(n))
    slabs = build_slab_structure([sample_input(spec, rng) for _ in range(k)])
    total = 0.0
    cells = 0
    for _ in range(200):
        inp = sample_input(spec, rng)
        occupancy = np.bincount(slabs.locate_array(inp.xs), minlength=slabs.num_slabs)
        total += float((occupancy.astype(np.float64) ** 2).sum())
        cells += slabs.num_slabs
    mean_sq = total / cells
    ok = mean_sq <= 10.0
    _report(capsys, 2, ok, f"mean squared slab occupancy {mean_sq:.3f} over 200 fresh inputs (cap 10)")


def test_03_every_tree_edge_is_two_thirds_reducing(model_cache, training_table, capsys):
    checked = bad = 0
    jobs = [(kind, n) for kind in KINDS for n in (16, 64, 256, 1024)]
    jobs += [("uniform_square", 8192), ("staircase_line", 8192)]
    for kind, n in jobs:
        model = model_cache(kind, n)
        reducing = audit_forest(model.forest, training_table(kind, n), mu=2 / 3).reducing
        checked += reducing.size
        bad += int(np.count_nonzero(~reducing))
    ok = bad == 0
    _report(capsys, 3, ok, f"{checked - bad}/{checked} trees 2/3-reducing across {len(jobs)} models (exact)")


def test_04_restricted_searches_run_near_entropy_bound(model_cache, training_table, capsys):
    # one shared instance stream across all scenario/size groups, so the
    # drawn instances match the ones the frozen constant was calibrated on
    picker = np.random.RandomState(77)
    worst_mean = 0.0
    worst_instance = 0.0
    for kind in KINDS:
        for n in (64, 256, 1024):
            model = model_cache(kind, n)
            freq = training_table(kind, n)
            num_slabs = model.slabs.num_slabs
            ratios = []
            made = 0
            while made < 100:
                i = int(picker.randint(n))
                a = int(picker.randint(num_slabs))
                b = int(picker.randint(num_slabs))
                lo, hi = min(a, b), max(a, b)
                weights = np.zeros(num_slabs)
                weights[lo : hi + 1] = freq.counts[i][lo : hi + 1]
                mass = weights.sum()
                if mass <= 0:
                    continue
                made += 1
                q_restricted = mass / freq.rounds
                mean = simulate_restricted_search(model.forest, i, (lo, hi), weights, trials=32, rng=SeededRng(made))
                ratios.append(mean / (-math.log2(q_restricted) + 1.0))
            worst_mean = max(worst_mean, sum(ratios) / len(ratios))
            worst_instance = max(worst_instance, max(ratios))
    ok = worst_mean <= SEARCH_C and worst_instance <= 2 * SEARCH_C
    _report(
        capsys,
        4,
        ok,
        f"900 restricted instances: worst group mean ratio {worst_mean:.3f} (cap {SEARCH_C}), "
        f"worst single instance {worst_instance:.3f} (cap {2 * SEARCH_C})",
    )


def test_05_update_buffer_volume_scales_linearly(model_cache, capsys):
    rates = {}
    for n in (1024, 8192):
        model = model_cache("uniform_square", n)
        per_run = []
        for seed in range(50):
            inp = sample_input(model.scenario, SeededRng(seed))
            stats = RunStats()
            run_maxima(model, inp, stats)
            per_run.append(stats.update_sorted_points / n)
        rates[n] = sum(per_run) / len(per_run)
    rel_diff = abs(rates[1024] - rates[8192]) / max(rates[1024], rates[8192])
    ok = rel_diff < 0.25
    _report(
        capsys,
        5,
        ok,
        f"mean buffered points per input point: {rates[1024]:.5f} at n=1024 vs {rates[8192]:.5f} "
        f"at n=8192, relative difference {rel_diff:.0%} (cap 25%)",
    )


def test_06_trained_engine_beats_sorting_on_skewed_inputs(model_cache, capsys):
    t0 = time.perf_counter()
    self_rate = {}
    sort_rate = {}
    for n in (1024, 8192):
        model = model_cache("staircase_line", n)
        self_vals = []
        sort_vals = []
        for seed in range(50):
            inp = sample_input(model.scenario, SeededRng(seed))
            stats = RunStats()
            run_maxima(model, inp, stats)
            self_vals.append((stats.tree_steps + stats.dominance_checks) / n)
            bstats = BaselineStats()
            sort_scan_maxima(inp, bstats)
            sort_vals.append((bstats.sort_cost + bstats.comparisons) / n)
        self_rate[n] = sum(self_vals) / len(self_vals)
        sort_rate[n] = sum(sort_vals) / len(sort_vals)
    elapsed = time.perf_counter() - t0
    self_growth = self_rate[8192] / self_rate[1024]
    sort_growth = sort_rate[8192] / sort_rate[1024]
    ok = self_growth <= 1.2 and sort_growth >= 1.25 and elapsed < 120.0
    _report(
        capsys,
        6,
        ok,
        f"per-point growth 1024 to 8192: engine {self_growth:.3f}x (cap 1.2), "
        f"sort baseline {sort_growth:.3f}x (floor 1.25), {elapsed:.1f}s (cap 120s)",
    )


def test_07_engine_cost_tracks_input_plus_entropy(model_cache, capsys):
    worst = 0.0
    for kind in KINDS:
        model = model_cache(kind, 1024)
        eps = model.config.epsilon
        budget = 1024 + model.entropy_total
        for seed in range(20):
            inp = sample_input(model.scenario, SeededRng(seed))
            stats = RunStats()
            run_maxima(model, inp, stats)
            worst = max(worst, stats.tree_steps * eps / budget)
    ok = worst <= ENGINE_COST_C
    _report(capsys, 7, ok, f"worst per-run cost constant {worst:.3f} across 60 runs (cap {ENGINE_COST_C})")


def test_08_sweep_replays_a_fifo_max_heap_and_scans_each_slab_once(model_cache, monkeypatch, capsys):
    # replay every read the engine's sweep makes (the top slab's points in
    # index order, then each read engine._reads yields) against an
    # independent heap of (-key, arrival, point): the sweep must always take
    # the point with the largest key, earliest arrival first, and a point
    # that is read again in a lower slab is a decrease-key made at the read
    # that moved it
    recorded = _record_reads(monkeypatch)
    ops = mismatches = leftover = bad_scans = bad_moves = runs = 0
    for kind in KINDS:
        model = model_cache(kind, 1024)
        for seed in range(17):
            stats = RunStats()
            run_maxima(model, sample_input(model.scenario, SeededRng(seed)), stats)
            reads = recorded[-1]
            top = model.slabs.num_slabs - 1
            moved_to = [None] * len(reads)  # the slab each read sends its point to next
            last_read: dict[int, int] = {}
            for r, (m, i) in enumerate(reads):
                if i in last_read:
                    moved_to[last_read[i]] = m
                last_read[i] = r
            heap = [(-top, i, i) for i in range(model.n)]  # already a heap: equal keys, ascending arrival
            clock = model.n
            for (m, i), hi in zip(reads, moved_to):
                neg_key, _, elem = heapq.heappop(heap) if heap else (1, -1, -1)
                mismatches += (-neg_key, elem) != (m, i)
                if hi is not None:
                    heapq.heappush(heap, (-hi, clock, i))
                    clock += 1
            ops += len(reads) + clock - model.n
            leftover += len(heap)
            bad_moves += clock - model.n != stats.decrease_keys
            bad_scans += stats.find_max_scans != model.slabs.num_slabs
            runs += 1
    ok = ops >= 100_000 and mismatches == 0 and leftover == 0 and bad_moves == 0 and bad_scans == 0
    _report(
        capsys,
        8,
        ok,
        f"{ops} heap pops + decrease-keys over {runs} runs (need >= 100000), {mismatches} read mismatches, "
        f"{leftover} points left in the heap, {bad_moves} runs with a decrease-key count off, "
        f"{bad_scans} runs scanning other than num_slabs buckets",
    )


def test_09_benchmark_csv_is_byte_deterministic(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--scenario", "uniform_square", "--n", "64", "--seed", "3", "--out", str(model_path)])
    assert rc == 0
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["run", "--model", str(model_path), "--trials", "25", "--seed", "17"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    data_a = out_a.read_bytes()
    ok = data_a == out_b.read_bytes() and len(data_a) > 0
    _report(capsys, 9, ok, f"two identical invocations produced byte-identical CSV ({len(data_a)} bytes, 75 rows)")
