"""In-memory span tracer that wraps module attributes from outside the package.

A span is (name, start ns, end ns, parent span, run id).  Spans live in flat
integer arrays so hundreds of thousands of them stay cheap, and are written
out once, when the run ends.  Nothing inside the package is edited: the
tracer swaps module attributes for timing wrappers while installed and puts
the originals back on ``uninstall``.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0  # set by the caller: one id per training or certified input
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Plan a wrapper for module.attr that records a span per call.

        on_result(value) sees each return value; it is how a caller reads a
        size off an intermediate result the package never returns.
        """
        orig = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((module, attr, orig, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, orig, _ in self._patches:
            setattr(module, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest, so children never overlap one
    another and their summed durations are exactly the covered time.
    """
    dur = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered.astype(np.int64)
