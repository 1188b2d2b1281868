"""Benchmark for simax: training cost and certified-answer throughput.

    python3 perfbench/run.py --workload limit_uniform --seed 1 --seconds 56 --trace 0

Builds inputs from --seed, runs one workload in this process for about
--seconds (rounds of set-up, training, save + load and certifying), checks
every answer, and prints a table, a `record:` line (exact counters, model
digests, machine state) and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 is a separate run that wraps
the package's functions in spans and reports the per-layer metrics.
--workload all runs every workload, each in a child process of its own.
Exits 1 if any answer failed, 2 if the simax sources are not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# the keys of workloads.WORKLOADS, which imports simax and so is loaded only once simax is found
WORKLOAD_NAMES = ("limit_uniform", "limit_two_level")


def read_proc() -> dict:
    """Steal ticks (all CPUs) and the 1-minute load average; empty where /proc is missing."""
    out = {}
    try:
        with open("/proc/stat") as fh:
            out["steal_ticks"] = int(fh.readline().split()[8])
        with open("/proc/loadavg") as fh:
            out["loadavg_1m"] = float(fh.read().split()[0])
    except (OSError, IndexError, ValueError):
        pass
    return out


def machine_state(begin: dict, wall: float, cpu: float) -> dict:
    import numpy

    end = read_proc()
    state = {
        "wall_s": wall,
        "process_cpu_s": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_begin": begin.get("loadavg_1m"),
        "loadavg_1m_end": end.get("loadavg_1m"),
    }
    if "steal_ticks" in begin and "steal_ticks" in end:
        state["steal_ticks"] = end["steal_ticks"] - begin["steal_ticks"]
    return state


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory and warm-up are its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        cmd += ["--smoke"] if args.smoke else []
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny n, for the self-test")
    parser.add_argument("--out", default=str(HERE / "runs"), help="where records, spans and the model file go")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        import simax
    except ImportError as e:
        print(f"perfbench: cannot import simax from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if Path(simax.__file__).resolve().parent != ROOT / "src" / "simax":
        print(f"perfbench: simax imported from {simax.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(args.out, exist_ok=True)
    begin = read_proc()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.out, args.smoke)
    record["machine"] = machine_state(begin, time.perf_counter() - wall0, time.process_time() - cpu0)

    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    for name, m in metrics.items():
        samples = f"  ({m['samples']} samples)" if "samples" in m else ""
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}{samples}")
    print(f"attempted {record['attempted']}  failed {record['failed']}  failed_fraction {record['failed_fraction']:.6g}")
    print("record: " + json.dumps(record, sort_keys=True))
    path = Path(args.out) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    correct = record["failed"] == 0
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
