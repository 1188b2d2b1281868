"""Self-test of the benchmark at tiny n.  Run with: python3 -m pytest perfbench"""

import json

import numpy as np
import pytest

import run  # puts this checkout's src/ first on sys.path
import workloads
from simax import InputSet, brute_force_maxima, engine, geometry
from tracing import self_times_ns

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(name, out_dir, trace):
    return workloads.run(name, seed=7, seconds=0.2, trace=trace, out_dir=str(out_dir), smoke_mode=True)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_benchmark_metric_is_emitted_with_its_unit(name, trace, kind, tmp_path):
    rec = smoke(name, tmp_path, trace)
    assert rec["failed"] == 0
    assert {k: m["unit"] for k, m in rec[kind].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) and np.isfinite(m["value"]) for m in rec[kind].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_repeats_counts_and_model_digest(name, tmp_path):
    a, b = smoke(name, tmp_path, False), smoke(name, tmp_path, False)
    for key in ("counters", "training_seeds", "model_sha256", "tree_nodes"):
        assert a[key] == b[key], key
    assert a["end_to_end"]["work_per_point"] == b["end_to_end"]["work_per_point"]


def test_corrupted_certificate_counts_as_failed(monkeypatch, tmp_path, capsys):
    real = engine.run_maxima
    calls = []

    def corrupting(model, inp, stats=None, **kwargs):
        cert = real(model, inp, stats, **kwargs)
        calls.append(1)
        if len(calls) == 3:  # the first certified input, after round 0's two reload-check runs
            i = next(iter(cert.dominators))
            cert = geometry.Certificate(cert.maxima, {**cert.dominators, i: i})
        return cert

    monkeypatch.setattr(engine, "run_maxima", corrupting)
    argv = ["--workload", "limit_uniform", "--seed", "7", "--seconds", "0.2", "--smoke", "--out", str(tmp_path)]
    code = run.main(argv)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (code, result["correct"], result["failed"]) == (1, False, 1)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_self_times_are_nonnegative_and_children_fit_parents(name, tmp_path):
    smoke(name, tmp_path, True)
    with np.load(tmp_path / f"{name}.spans.npz") as data:
        spans = {k: data[k] for k in ("name_id", "start_ns", "end_ns", "parent", "run")}
        name_of = data["names"][data["name_id"]]
    assert (self_times_ns(spans) >= 0).all()
    child = np.flatnonzero(spans["parent"] >= 0)
    parent = spans["parent"][child]
    assert (spans["start_ns"][child] >= spans["start_ns"][parent]).all()
    assert (spans["end_ns"][child] <= spans["end_ns"][parent]).all()
    assert (spans["run"][child] == spans["run"][parent]).all()
    for inner, outer in [
        ("engine.make_engine_state", "engine.run_maxima"),
        ("engine.update_step", "engine.run_maxima"),
        ("engine.entropy_proxy", "learning.train_model"),
        ("learning.build_search_tree", "learning.train_model"),
    ]:
        spans_of = np.flatnonzero(name_of == inner)
        assert spans_of.size and (name_of[spans["parent"][spans_of]] == outer).all(), inner


def test_timings_are_scaled_by_the_median_reference_time_around_them(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_WINDOW_S", 1e-9)
    host = workloads.HostSpeed(workloads.python_reference)
    host.start_ns.extend([0, 10, 20, 30, 40, 50])
    host.ms.extend([2.0, 2.0, 9.0, 2.0, 1.0, 1.0])  # one outlier, which the median ignores; then the host speeds up
    # each window reaches one interval length either side of it: 5-35, 27-63 and -10-20
    scales = host.scales([(15, 25), (39, 51), (0, 10)]) / workloads.REF_MS
    assert np.allclose(scales, [1 / 2, 1 / 1, 1 / 2])


def test_numpy_reference_matches_the_quadratic_oracle_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        inp = InputSet(rng.integers(0, 6, n).astype(float), rng.integers(0, 6, n).astype(float))
        expect = sorted(brute_force_maxima(inp).maxima)
        assert workloads.numpy_sweep_maxima(inp).tolist() == expect
