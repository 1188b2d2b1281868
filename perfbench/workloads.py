"""The benchmark's workloads and the metrics they report.

A run is ROUNDS rounds of what a user of simax does: set up (build the
scenario, compile its sampler, draw inputs), train a model with a new seed,
save and reload it, then get certified answers for fresh inputs with the
reloaded model until the round's share of --seconds is used up.  Every
timed operation is thus sampled ROUNDS times, spread over the whole run,
and each metric is a median over those samples.  The workloads differ in
where the engine's time goes:

limit_uniform    uniform_square, n = 2048.  ~8 maxima, so the search loop
                 dominates and the update sort is bypassed; the largest
                 model of the two (~1.4 s save + load).
limit_two_level  two_level, n = 2048.  ~1020 maxima: half the points reach
                 the update buffer and check_certificate walks a long
                 staircase.

Package calls go through their module attribute (engine.run_maxima, not a
name imported here), so a Tracer that wraps those attributes sees them.

Timings are the calling thread's CPU time, reported at a fixed host speed.
CPU time leaves out the time the host takes the virtual CPU away (steal,
up to a quarter of a run).  The host also runs this code up to ~1.8x slower
for stretches from a fraction of a second to a minute, which CPU time does
show, so the benchmark times fixed kernels of its own (python_reference,
numpy_reference, ~1 ms each) before every certified input and around every
other timed call, and scales each timing by REF_MS over the median kernel
CPU time in a window around it (HostSpeed).  Wall times stay in the record.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from array import array
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from simax import distributions, engine, geometry, learning
from tracing import Tracer, self_times_ns

COUNTERS = (
    "tree_steps",
    "dominance_checks",
    "decrease_keys",
    "find_max_scans",
    "update_sorted_points",
    "update_sort_comparisons",
)
MIB = 2**20
ROUNDS = 10  # set-up, train, save + load, certify: each timing's median is over the rounds
REF_MS = 1.0  # the reference speed: each reference kernel takes about this long on the idle host
REF_BURST = 30  # kernel runs before each set-up, training and save + load
MIN_WINDOW_S = 0.1  # each timing is scaled by the kernel times within max(its length, this) of it


@dataclass(frozen=True)
class Workload:
    scenario: str
    n: int
    pool: int  # inputs drawn in each round's set-up; the round draws any further ones between timed calls
    counted: int  # first inputs of each round whose exact counters are kept (and always certified)
    io_repeats: int  # save + load round trips per round: 1 unless one takes well under 1 s
    rounds: int = ROUNDS


WORKLOADS = {
    "limit_uniform": Workload("uniform_square", 2048, pool=48, counted=16, io_repeats=1),
    "limit_two_level": Workload("two_level", 2048, pool=48, counted=16, io_repeats=4),
}


def smoke(w: Workload) -> Workload:
    """The same workload at tiny n, for the self-test."""
    return replace(w, n=64, pool=4, counted=4, rounds=2)


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# sample_input memoises each scenario's compiled sampler and equal scenarios
# share it, so a repeated set-up would skip the compile that a fresh process
# pays; forget it at the start of every set-up.
_forget_sampler = getattr(getattr(distributions, "_compile", None), "cache_clear", lambda: None)


class Inputs:
    """One round's input stream: successive draws from a seed-derived rng.

    Set-up draws the first `pool`; the round draws the rest on demand,
    outside its timed calls.  Rounds use distinct streams, so no input is
    ever certified twice.
    """

    def __init__(self, spec, seed: int, round_: int, pool: int):
        self._spec = spec
        self._rng = distributions.SeededRng(derive_seed(seed, 1, round_))
        self.pool = [self.draw() for _ in range(pool)]

    def draw(self):
        return distributions.sample_input(self._spec, self._rng)


def python_reference() -> int:
    """Pure-Python dict and list work, like run_maxima and check_certificate."""
    d, xs = {}, []
    for i in range(6000):
        d[i & 255] = d.get(i & 255, 0) + i
        xs.append(i * 3 % 17)
    xs.sort()
    return len(d) + xs[-1]


_REF_RNG = np.random.default_rng(0)
_REF_EDGES = np.sort(_REF_RNG.random(511))
_REF_ROWS = np.arange(2048)
_REF_COUNTS = np.zeros((_REF_ROWS.size, _REF_EDGES.size + 1), dtype=np.uint16)


def numpy_reference() -> None:
    """Draw points, locate their slabs and count hits, like train_model's sampling and counting."""
    for _ in range(6):
        _REF_COUNTS[_REF_ROWS, np.searchsorted(_REF_EDGES, _REF_RNG.random(_REF_ROWS.size))] += 1


class HostSpeed:
    """A reference kernel's CPU times, taken all through a run, with their wall-clock start times."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.start_ns = array("q")
        self.ms = array("d")

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            self.start_ns.append(time.perf_counter_ns())
            c0 = time.thread_time_ns()
            self.kernel()
            self.ms.append((time.thread_time_ns() - c0) / 1e6)

    def scales(self, intervals) -> np.ndarray:
        """REF_MS over the median kernel time within max(length, MIN_WINDOW_S) of each (start, end) ns interval."""
        t = np.frombuffer(self.start_ns, dtype=np.int64)
        ms = np.frombuffer(self.ms, dtype=np.float64)
        out = np.empty(len(intervals))
        for i, (t0, t1) in enumerate(intervals):
            w = max(t1 - t0, int(MIN_WINDOW_S * 1e9))
            lo, hi = np.searchsorted(t, (t0 - w, t1 + w))
            out[i] = REF_MS / np.median(ms[lo:hi])
        return out


class Timed:
    """Wall-clock (start, end) ns and thread CPU ns of each call timed with `with timed:`."""

    def __init__(self):
        self.intervals = []
        self.cpu_ns = []

    def __enter__(self):
        self._t0, self._c0 = time.perf_counter_ns(), time.thread_time_ns()

    def __exit__(self, *exc):
        self.cpu_ns.append(time.thread_time_ns() - self._c0)
        self.intervals.append((self._t0, time.perf_counter_ns()))

    def seconds(self) -> list:
        return [(t1 - t0) / 1e9 for t0, t1 in self.intervals]

    def cpu_seconds(self) -> np.ndarray:
        return np.array(self.cpu_ns) / 1e9


def numpy_sweep_maxima(inp) -> np.ndarray:
    """Sorted indices of the maximal points: numpy lexsort plus a running-max sweep.

    Walks x descending (ties by y descending).  A point is maximal when it
    has the largest y of its equal-x run and beats every y seen at strictly
    larger x; exact duplicates of a maximal point are all maximal.
    """
    xs, ys = inp.xs, inp.ys
    order = np.lexsort((ys, xs))[::-1]
    x, y = xs[order], ys[order]
    k = np.arange(x.size)
    head = np.maximum.accumulate(np.where(np.r_[True, x[1:] != x[:-1]], k, 0))
    seen = np.r_[-np.inf, np.maximum.accumulate(y)[:-1]]
    keep = (y == y[head]) & (y > seen[head])
    return np.sort(order[keep])


def certify(model, inp, stats):
    """One certified answer: run_maxima, then check_certificate's reason (None if valid)."""
    cert = engine.run_maxima(model, inp, stats)
    try:
        reason = geometry.check_certificate(inp, cert)
    except geometry.CertificateIndexError as e:
        reason = str(e)
    return cert, reason


def model_io(model, workdir: str, repeats: int, timed: Timed, burst):
    """save_model then load_model, `repeats` times, each timed after a burst().

    A small model's round trip takes ~0.2 s, too short to sample once.
    Returns (reloaded model, sha256 of the file, its size).
    """
    path = os.path.join(workdir, f"model-{os.getpid()}.json")
    try:
        for _ in range(repeats):
            burst()
            with timed:
                learning.save_model(model, path)
                loaded = learning.load_model(path)
        with open(path, "rb") as fh:
            data = fh.read()
    finally:
        with suppress(FileNotFoundError):
            os.remove(path)
    return loaded, hashlib.sha256(data).hexdigest(), len(data)


def same_answer(a, b, inp) -> bool:
    sa, sb = engine.RunStats(), engine.RunStats()
    return certify(a, inp, sa) == certify(b, inp, sb) and sa == sb


@dataclass
class Stream:
    """Certified-answer samples and exact counters, summed over the rounds."""

    timed: Timed = field(default_factory=Timed)  # untraced certified inputs
    traced_latency_ns: list = field(default_factory=list)
    traced_runs: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    maxima: int = 0
    attempted: int = 0
    failed: int = 0


def certify_stream(out: Stream, model, inputs: Inputs, counted: int, deadline: float, host: HostSpeed, tracer: Tracer | None) -> None:
    """Closed loop, one caller: certify inputs until `deadline` and until `counted` are done.

    python_reference is timed before each untraced input.  With a tracer,
    each input is certified twice, untraced and traced, in alternating
    order, so the latency difference is the tracing overhead.  The traced
    pass also times the two reference algorithms.
    """
    passes = ((False,),) if tracer is None else ((False, True), (True, False))
    k = 0
    while k < counted or time.perf_counter() < deadline:
        inp = inputs.pool[k] if k < len(inputs.pool) else inputs.draw()
        for traced in passes[k % len(passes)]:
            stats = engine.RunStats()
            if traced:
                tracer.run_id += 1
                out.traced_runs.append(tracer.run_id)
                tracer.install()
                try:
                    t0 = time.perf_counter_ns()
                    cert, reason = certify(model, inp, stats)
                    out.traced_latency_ns.append(time.perf_counter_ns() - t0)
                    geometry.sort_scan_maxima(inp)
                    with tracer.span("baseline.numpy_sweep"):
                        numpy_sweep_maxima(inp)
                finally:
                    tracer.uninstall()
            else:
                host.sample()
                with out.timed:
                    cert, reason = certify(model, inp, stats)
            out.attempted += 1
            if reason is not None or sorted(cert.maxima) != numpy_sweep_maxima(inp).tolist():
                out.failed += 1
        if k < counted:
            for c in COUNTERS:
                out.counters[c] += getattr(stats, c)
            out.maxima += len(cert.maxima)
        k += 1


def plan_spans(tracer: Tracer, freq_bytes: list) -> None:
    wrap = tracer.wrap
    wrap(learning, "train_model", "learning.train_model")
    # learning imports sample_input by name; its calls only go through learning's attribute
    wrap(learning, "sample_input", "distributions.sample_input")
    wrap(learning, "build_slab_structure", "learning.build_slab_structure")
    wrap(learning, "collect_frequencies", "learning.collect_frequencies", lambda f: freq_bytes.append(f.counts.nbytes))
    wrap(learning, "build_search_tree", "learning.build_search_tree")
    # train_model imports entropy_proxy lazily from engine at each call
    wrap(engine, "entropy_proxy", "engine.entropy_proxy")
    wrap(learning, "save_model", "learning.save_model")
    wrap(learning, "load_model", "learning.load_model")
    wrap(engine, "run_maxima", "engine.run_maxima")
    wrap(engine, "make_engine_state", "engine.make_engine_state")
    wrap(engine, "update_step", "engine.update_step")
    wrap(geometry, "check_certificate", "geometry.check_certificate")
    wrap(geometry, "sort_scan_maxima", "geometry.sort_scan_maxima")


def layer_metrics(tracer: Tracer, stream: Stream, points: int, tree_nodes: int, freq_bytes: int, model_bytes: int) -> dict:
    """Per-layer metrics from the spans: medians per training and per traced input, plus counts."""
    spans = tracer.arrays()
    self_ns = self_times_ns(spans)
    nruns = tracer.run_id + 1
    train_runs = np.unique(spans["run"][spans["name_id"] == tracer.names.index("learning.train_model")])

    def per_run(name: str, weights) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(nruns)
        mask = spans["name_id"] == tracer.names.index(name)
        return np.bincount(spans["run"][mask], weights=None if weights is None else weights[mask], minlength=nruns)

    def train_s(name):
        return float(np.median(per_run(name, self_ns)[train_runs])) / 1e9

    def input_ms(name):
        return float(np.median(per_run(name, self_ns)[stream.traced_runs])) / 1e6

    def io_s(name):
        mask = spans["name_id"] == tracer.names.index(name)
        return float(np.median(self_ns[mask])) / 1e9

    c = stream.counters
    untraced = statistics.median(stream.timed.seconds())
    metrics = {
        "distributions.sample_input_s": (train_s("distributions.sample_input"), "s"),
        "distributions.sample_input_calls": (float(np.median(per_run("distributions.sample_input", None)[train_runs])), "count"),
        "learning.build_slab_structure_s": (train_s("learning.build_slab_structure"), "s"),
        "learning.collect_frequencies_s": (train_s("learning.collect_frequencies"), "s"),
        "learning.build_search_tree_s": (train_s("learning.build_search_tree"), "s"),
        "learning.tree_nodes": (tree_nodes, "count"),
        "learning.freq_table_mib": (freq_bytes / MIB, "MiB"),
        "engine.entropy_proxy_s": (train_s("engine.entropy_proxy"), "s"),
        "learning.save_model_s": (io_s("learning.save_model"), "s"),
        "learning.load_model_s": (io_s("learning.load_model"), "s"),
        "learning.model_mib": (model_bytes / MIB, "MiB"),
        "engine.make_engine_state_ms": (input_ms("engine.make_engine_state"), "ms"),
        "engine.search_loop_ms": (input_ms("engine.run_maxima"), "ms"),
        "engine.update_step_ms": (input_ms("engine.update_step"), "ms"),
        "engine.tree_steps_per_point": (c["tree_steps"] / points, "count"),
        "engine.dominance_checks_per_point": (c["dominance_checks"] / points, "count"),
        "engine.decrease_keys_per_point": (c["decrease_keys"] / points, "count"),
        "engine.find_max_scans_per_point": (c["find_max_scans"] / points, "count"),
        "engine.buffered_per_point": (c["update_sorted_points"] / points, "count"),
        "engine.update_sort_comparisons_per_point": (c["update_sort_comparisons"] / points, "count"),
        "engine.buffer_yield": (stream.maxima / c["update_sorted_points"], "ratio"),
        "geometry.check_certificate_ms": (input_ms("geometry.check_certificate"), "ms"),
        "geometry.sort_scan_maxima_ms": (input_ms("geometry.sort_scan_maxima"), "ms"),
        "baseline.numpy_sweep_ms": (input_ms("baseline.numpy_sweep"), "ms"),
        "trace.overhead_pct": (100 * (statistics.median(stream.traced_latency_ns) / 1e9 - untraced) / untraced, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str, smoke_mode: bool = False) -> dict:
    """Run one workload for about `seconds`; returns the run's record (metrics, counts, digests, samples)."""
    w = WORKLOADS[name]
    if smoke_mode:
        w = smoke(w)
    tracer = freq_bytes = None
    if trace:
        tracer, freq_bytes = Tracer(), []
        plan_spans(tracer, freq_bytes)
    host = HostSpeed(python_reference)  # for set-up, model I/O and certified inputs
    host_np = HostSpeed(numpy_reference)  # for training, mostly numpy drawing and counting

    def burst():
        host.sample(REF_BURST)
        host_np.sample(REF_BURST)

    setup, training, io = Timed(), Timed(), Timed()
    training_seeds, digests = [], []
    stream = Stream()
    reload_failures = 0
    rss0 = maxrss_mib()
    start = time.perf_counter()
    for r in range(w.rounds):
        model = loaded = inputs = None  # drop the last round's before this one's set-up
        training_seeds.append(derive_seed(seed, 0, r))
        burst()
        with setup:
            spec = distributions.build_scenario(w.scenario, w.n)
            _forget_sampler()
            inputs = Inputs(spec, seed, r, w.pool)
        burst()
        if tracer is not None:
            tracer.run_id += 1
            tracer.install()
        try:
            with training:
                model = learning.train_model(spec, seed=training_seeds[-1])
            if r == 0:
                peak = maxrss_mib() - rss0
            loaded, digest, model_bytes = model_io(model, out_dir, w.io_repeats, io, burst)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digests.append(digest)
        reload_failures += not same_answer(model, loaded, inputs.pool[0])
        tree_nodes = model.total_nodes()
        model = None  # the round certifies with the reloaded model, as `simax run` would
        certify_stream(stream, loaded, inputs, w.counted, start + seconds * (r + 1) / w.rounds, host, tracer)
    attempted = stream.attempted + w.rounds
    failed = stream.failed + reload_failures

    timings = {"setup": (setup, host), "train": (training, host_np), "model_io": (io, host)}
    scales = {k: h.scales(t.intervals) for k, (t, h) in timings.items()}
    at_ref = {k: t.cpu_seconds() * scales[k] for k, (t, _) in timings.items()}
    lat_ms = 1e3 * stream.timed.cpu_seconds() * host.scales(stream.timed.intervals)
    raw_ms = 1e3 * np.array(stream.timed.seconds())
    c = stream.counters
    points = w.n * w.counted * w.rounds
    work = c["tree_steps"] + c["dominance_checks"] + c["update_sort_comparisons"]
    end_to_end = {  # name: (value, unit, samples behind it)
        "setup_s": (float(np.median(at_ref["setup"])), "s", w.rounds),
        "train_s": (float(np.median(at_ref["train"])), "s", w.rounds),
        "train_peak_mib": (peak, "MiB", 1),
        "model_io_s": (float(np.median(at_ref["model_io"])), "s", len(io.intervals)),
        "certified_per_s": (1e3 * lat_ms.size / lat_ms.sum(), "inputs/s", lat_ms.size),
        "certified_ms_p50": (float(np.percentile(lat_ms, 50)), "ms", lat_ms.size),
        "certified_ms_p90": (float(np.percentile(lat_ms, 90)), "ms", lat_ms.size),
        "work_per_point": (work / points, "count", w.counted * w.rounds),
    }
    ref_ms = {k: np.frombuffer(h.ms, dtype=np.float64) for k, h in (("python", host), ("numpy", host_np))}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke_mode,
        "scenario": w.scenario,
        "n": w.n,
        "rounds": w.rounds,
        "training_seeds": training_seeds,
        "model_sha256": digests,
        "model_bytes": model_bytes,
        "tree_nodes": tree_nodes,
        "counters": dict(c, maxima=stream.maxima),
        "certified_traced": len(stream.traced_latency_ns),
        "raw_s": {"setup": setup.seconds(), "train": training.seconds(), "model_io": io.seconds()},  # wall clock
        "cpu_s": {k: t.cpu_seconds().tolist() for k, (t, _) in timings.items()},
        "scale": {k: v.tolist() for k, v in scales.items()},  # REF_MS over the local kernel time, per sample
        "wall_clock": {  # the timed end-to-end metrics before scaling to the reference speed
            "setup_s": statistics.median(setup.seconds()),
            "train_s": statistics.median(training.seconds()),
            "model_io_s": statistics.median(io.seconds()),
            "certified_per_s": 1e3 * raw_ms.size / raw_ms.sum(),
            "certified_ms_p50": float(np.percentile(raw_ms, 50)),
            "certified_ms_p90": float(np.percentile(raw_ms, 90)),
        },
        "reference_ms": {k: {"samples": v.size, "p10": float(np.percentile(v, 10)), "p50": float(np.median(v))} for k, v in ref_ms.items()},
        "reload_failures": reload_failures,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in end_to_end.items()},
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(tracer, stream, points, tree_nodes, freq_bytes[-1], model_bytes)
        record["spans"] = len(tracer.start)
        tracer.save(os.path.join(out_dir, f"{name}.spans.npz"))
    return record
