"""The package names perfbench wraps or reads must keep existing, on the path where they are used.

perfbench (the gated benchmark, outside this test suite) swaps module
attributes for timing wrappers by name, reads the table size off what
collect_frequencies returns and sums RunStats fields by name, so a package
change that renames, deletes or stops calling one breaks the benchmark.
These tests catch that without running it.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

from simax import geometry, learning
from simax.distributions import SeededRng, build_scenario, sample_input
from simax.engine import RunStats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


class _RecordingTracer:
    """Stands in for perfbench's Tracer: records each planned wrap and wraps nothing."""

    def __init__(self):
        self.hooks = []

    def wrap(self, module, attr, name, on_result=None):
        self.hooks.append((module, attr, name))


def test_every_wrapped_attribute_exists_and_is_callable(workloads):
    tracer = _RecordingTracer()
    workloads.plan_spans(tracer, [])
    assert tracer.hooks
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.hooks if not callable(getattr(module, attr, None))]
    assert missing == []


def test_every_counter_is_a_run_stats_field(workloads):
    assert set(workloads.COUNTERS) <= {f.name for f in dataclasses.fields(RunStats)}


def test_every_wrapped_name_is_on_its_path(workloads, tmp_path):
    # one train, save, load and certified answer, as a perfbench round makes them, must record every planned span
    plan = _RecordingTracer()
    workloads.plan_spans(plan, [])
    tracer, freq_bytes = workloads.Tracer(), []
    workloads.plan_spans(tracer, freq_bytes)
    path = tmp_path / "model.json"
    tracer.install()
    try:
        learning.save_model(learning.train_model(build_scenario("two_level", 16), seed=3), path)
        model = learning.load_model(path)
        inp = sample_input(model.scenario, SeededRng(4))
        _, reason = workloads.certify(model, inp, RunStats())
        geometry.sort_scan_maxima(inp)
    finally:
        tracer.uninstall()
    assert reason is None
    assert sorted({name for _, _, name in plan.hooks} - set(tracer.names)) == []
    assert freq_bytes  # the collect_frequencies hook read .counts.nbytes


def test_training_draws_every_round_through_the_hooked_name(monkeypatch):
    # perfbench counts the slab rounds' draws by wrapping learning.sample_input, and times the tree rounds' block draws
    # inside its learning.collect_frequencies span; a draw that bypasses both learning attributes would go unseen
    calls, rows = [], []
    real_input, real_xs = learning.sample_input, learning.sample_xs
    monkeypatch.setattr(learning, "sample_input", lambda spec, rng: calls.append(1) or real_input(spec, rng))

    def block(spec, rng, rounds):
        xs = real_xs(spec, rng, rounds)
        rows.append(len(xs))
        return xs

    monkeypatch.setattr(learning, "sample_xs", block)
    config = learning.TrainingConfig()
    learning.train_model(build_scenario("uniform_square", 16), config, seed=3)
    assert len(calls) == config.slab_rounds(16)
    assert sum(rows) == config.tree_rounds(16)


def test_training_collects_one_frequency_table(monkeypatch):
    # perfbench's freq_table_mib and conftest's recorded training table both read the one table a train_model call collects
    calls = []
    real = learning.collect_frequencies
    monkeypatch.setattr(learning, "collect_frequencies", lambda *args: calls.append(1) or real(*args))
    learning.train_model(build_scenario("two_level", 16), seed=3)
    assert len(calls) == 1
