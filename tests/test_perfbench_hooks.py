"""The package names perfbench wraps or reads must keep existing.

perfbench (the gated benchmark, outside this test suite) swaps module
attributes for timing wrappers by name and sums RunStats fields by name, so a
package change that renames or deletes one breaks the benchmark.  These tests
catch that without running it.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

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
        self.hooks.append((module, attr))


def test_every_wrapped_attribute_exists_and_is_callable(workloads):
    tracer = _RecordingTracer()
    workloads.plan_spans(tracer, [])
    assert tracer.hooks
    missing = [f"{module.__name__}.{attr}" for module, attr in tracer.hooks if not callable(getattr(module, attr, None))]
    assert missing == []


def test_every_counter_is_a_run_stats_field(workloads):
    assert set(workloads.COUNTERS) <= {f.name for f in dataclasses.fields(RunStats)}
