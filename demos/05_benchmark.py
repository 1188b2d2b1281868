"""
Benchmark pipeline: train, run trials, report
=============================================

The bench module turns models into CSV measurements and measurements into a
summary plus SVG charts.  The same pipeline is scriptable here and exposed
as the `simax` command line (train / run / report / verify).
"""

import tempfile
from pathlib import Path

from simax import build_scenario, load_model, save_model, train_model
from simax.bench import (
    aggregate_rows,
    read_rows_csv,
    run_trials,
    write_report,
    write_rows_csv,
)

scratch = tempfile.TemporaryDirectory(prefix="simax-bench-")  # removed when the script exits
work = Path(scratch.name)

# ---------------------------------------------------------------------------
# train and persist one model per input size

paths = []
for n in (64, 128, 256):
    model = train_model(build_scenario("two_level", n), seed=9)
    path = work / f"two_level_{n}.simax"
    save_model(model, path)
    paths.append(path)
print("models trained:", [p.name for p in paths])

# ---------------------------------------------------------------------------
# run trials: every trial runs the engine and both baselines on one input

all_rows = []
for path in paths:
    all_rows.extend(run_trials(load_model(path), trials=12, seed=400))
csv_path = work / "results.csv"
write_rows_csv(all_rows, csv_path)
print(f"{len(all_rows)} rows -> {csv_path.name} "
      f"({csv_path.stat().st_size} bytes)")

# rows survive the round trip byte-for-byte
assert [r.to_csv() for r in read_rows_csv(csv_path)] == [r.to_csv() for r in all_rows]

# ---------------------------------------------------------------------------
# aggregate and render

for s in aggregate_rows(all_rows):
    print(f"  {s.scenario} n={s.n:4d} {s.algorithm:12s} "
          f"work/point={s.mean_work_per_point:7.2f} verified={s.all_verified}")

written = write_report(all_rows, work / "report")
print("report files:", [p.name for p in written])

# the SVG charts are plain standalone files, no plotting stack required
svg = (work / "report" / "work_per_point.svg").read_text(encoding="utf-8")
print("chart starts with:", svg[:40], "...")

# ---------------------------------------------------------------------------
# determinism: replaying the same trials reproduces the same bytes

again = []
for path in paths:
    again.extend(run_trials(load_model(path), trials=12, seed=400))
assert [r.to_csv() for r in again] == [r.to_csv() for r in all_rows]
print("replay is byte-identical (timing is off by default)")
