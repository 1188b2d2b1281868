"""
Limiting phase: trained engine vs the sort baseline
===================================================

After training, the engine processes fresh inputs from the same scenario
with work that tracks the scenario's entropy rather than n log n.  Every run
still emits a verifiable certificate, so speed never costs trust.
"""

import time

import numpy as np

from simax import (
    BaselineStats,
    RunStats,
    SeededRng,
    build_scenario,
    run_maxima,
    sample_input,
    sort_scan_maxima,
    train_model,
    verify_certificate,
)

# ---------------------------------------------------------------------------
# train once per scenario, then reuse the model across many inputs

n = 512
trials = 30
models = {}
first_run_ms = {}

for kind in ("uniform_square", "staircase_line", "two_level"):
    spec = build_scenario(kind, n)
    model = models[kind] = train_model(spec, seed=5)

    engine_cost = np.zeros(trials)
    sweep_cost = np.zeros(trials)
    for t in range(trials):
        inp = sample_input(spec, SeededRng(1000 + t))

        rs = RunStats()
        start = time.thread_time_ns()
        cert = run_maxima(model, inp, stats=rs)
        if t == 0:  # a model's first run also builds its table of each tree's right spine
            first_run_ms[kind] = (time.thread_time_ns() - start) / 1e6
        assert verify_certificate(inp, cert)
        # comparisons, an upper bound: tree steps and dominance checks cost at
        # most 2 each (the sweep checks each point it reads once, on y alone),
        # buffer sorting is counted by its own key comparisons
        engine_cost[t] = (2 * rs.tree_steps + 2 * rs.dominance_checks
                          + rs.update_sort_comparisons)

        bs = BaselineStats()
        base = sort_scan_maxima(inp, stats=bs)
        assert base.maxima == cert.maxima
        sweep_cost[t] = bs.sort_cost + bs.comparisons

    print(f"{kind:16s} engine {engine_cost.mean():8.0f} comparisons/run, "
          f"sort+sweep {sweep_cost.mean():8.0f}, "
          f"ratio {engine_cost.mean() / sweep_cost.mean():.2f}")

# the sweep re-pays its n log n sort on every input; the engine paid during
# training and now spends least where the scenario is most predictable

# ---------------------------------------------------------------------------
# the wall-clock floor: counted comparisons are not seconds, and a user with
# numpy would sort in C and skip the certificate altogether


def numpy_sweep_maxima(inp):
    """Sorted indices of the maximal points: lexsort by x then y, descending, and a running max of y (uncertified)."""
    order = np.lexsort((inp.ys, inp.xs))[::-1]
    x, y = inp.xs[order], inp.ys[order]
    head = np.maximum.accumulate(np.where(np.r_[True, x[1:] != x[:-1]], np.arange(x.size), 0))  # start of each equal-x run
    seen = np.r_[-np.inf, np.maximum.accumulate(y)[:-1]]  # largest y at larger x, or earlier in the run
    return np.sort(order[(y == y[head]) & (y > seen[head])])


def median_ms(f, inputs):
    times = []
    for inp in inputs:
        start = time.thread_time_ns()
        f(inp)
        times.append(time.thread_time_ns() - start)
    return np.median(times) / 1e6


print("\nmedian thread CPU per run:")
for kind, model in models.items():
    inputs = [sample_input(model.scenario, SeededRng(1000 + t)) for t in range(trials)]
    assert all(numpy_sweep_maxima(inp).tolist() == sorted(run_maxima(model, inp).maxima) for inp in inputs)
    print(f"{kind:16s} engine {median_ms(lambda inp: run_maxima(model, inp), inputs):6.3f} ms "
          f"(first run, with its spine table, {first_run_ms[kind]:6.3f} ms), "
          f"sort+sweep {median_ms(sort_scan_maxima, inputs):6.3f} ms, "
          f"numpy lexsort sweep {median_ms(numpy_sweep_maxima, inputs):6.3f} ms (uncertified)")

# ---------------------------------------------------------------------------
# the counters break the work down

spec = build_scenario("staircase_line", n)
model = train_model(spec, seed=5)
rs = RunStats()
run_maxima(model, sample_input(spec, SeededRng(99)), stats=rs)
print("\none staircase_line run:")
for field in ("tree_steps", "dominance_checks", "decrease_keys",
              "update_sorted_points", "update_sort_comparisons"):
    print(f"  {field:24s} {getattr(rs, field)}")

# a model is tied to its scenario: a run on inputs of the wrong size fails fast
try:
    run_maxima(model, sample_input(build_scenario("two_level", 16), SeededRng(0)))
except ValueError as err:
    print("\nwrong input size rejected:", err)
