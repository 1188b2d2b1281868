"""Command line front end: train models, run benchmarks, report, verify.

Exit codes: 0 success, 1 for runtime failures (bad input file, failed
verification), 2 when a trained model cannot be written (and for argparse
usage errors, which argparse itself reports with code 2).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import ALGORITHMS, read_rows_csv, run_trials, write_report, write_rows_csv
from .distributions import BUILTIN_SCENARIOS, ScenarioError, build_scenario, load_scenario_file, sample_input, SeededRng
from .engine import RunStats, run_maxima
from .geometry import check_certificate
from .learning import TrainingConfig, load_model, save_model, train_model


def _resolve_scenario(arg: str, n: int | None):
    if arg in BUILTIN_SCENARIOS:
        if n is None:
            raise ScenarioError(f"built-in scenario {arg!r} needs --n")
        return build_scenario(arg, n)
    path = Path(arg)
    if not path.exists():
        raise ScenarioError(f"{arg!r} is neither a built-in scenario ({', '.join(BUILTIN_SCENARIOS)}) nor a file")
    spec = load_scenario_file(path)
    if n is not None and n != spec.n:
        raise ScenarioError(f"--n {n} contradicts scenario file n={spec.n}")
    return spec


def cmd_train(args) -> int:
    spec = _resolve_scenario(args.scenario, args.n)
    config = TrainingConfig(epsilon=args.eps, delta=args.delta, rounds_cap=args.rounds_cap)
    model = train_model(spec, config, seed=args.seed)
    try:
        save_model(model, args.out)
    except OSError as e:
        print(f"error: cannot write model to {args.out}: {e}", file=sys.stderr)
        return 2
    print(
        f"trained {spec.name} n={model.n}: {model.slabs.num_slabs} slabs, "
        f"{model.total_nodes()} tree nodes, entropy {model.entropy_total:.1f} bits -> {args.out}"
    )
    return 0


def cmd_run(args) -> int:
    model = load_model(args.model)
    rows = run_trials(model, args.trials, args.seed, timing=args.timing)
    write_rows_csv(rows, args.out)
    bad = sum(1 for r in rows if r.verified is False)
    print(f"{len(rows)} rows ({args.trials} trials x {len(ALGORITHMS)} algorithms) -> {args.out}")
    if bad:
        print(f"error: {bad} rows failed certificate verification", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        rows.extend(read_rows_csv(path))
    written = write_report(rows, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    model = load_model(args.model)
    inp = sample_input(model.scenario, SeededRng(args.seed))
    stats = RunStats()
    try:
        cert = run_maxima(model, inp, stats, debug_invariants=True)
    except AssertionError as e:  # the frontier check, whose last call compares the whole staircase
        print(f"FAIL: {e}")
        return 1
    reason = check_certificate(inp, cert)
    if reason is not None:
        print(f"FAIL: certificate invalid for seed {args.seed}: {reason}")
        return 1
    print(
        f"PASS: {model.scenario.name} n={model.n} seed={args.seed}: {len(cert.maxima)} maxima, "
        f"{stats.tree_steps} tree steps, {stats.dominance_checks} dominance checks, "
        f"frontier invariant held at every step"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model for a scenario and write it to a file")
    p.add_argument("--scenario", required=True, help="built-in name or scenario JSON file")
    p.add_argument("--n", type=int, default=None, help="instance size (required for built-ins)")
    p.add_argument("--eps", type=float, default=0.5, help="space/optimality knob in (0,1] (default 0.5)")
    p.add_argument("--delta", type=float, default=0.5, help="frequency accuracy slack in (0,1) (default 0.5)")
    p.add_argument("--rounds-cap", type=int, default=10_000, help="hard cap on training rounds (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="training seed (default 0)")
    p.add_argument("--out", required=True, help="output model file (a JSON header line, then the arrays as raw bytes)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="benchmark a trained model on fresh inputs, write CSV rows")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--trials", type=int, default=20, help="number of fresh inputs (default 20)")
    p.add_argument("--seed", type=int, default=0, help="base seed; trial t uses seed+t (default 0)")
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument(
        "--timing",
        action="store_true",
        help="record wall_time_ns (makes output non-reproducible byte for byte; the first engine row also builds the model's spine table)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate CSV rows into summary.csv and SVG charts")
    p.add_argument("--in", dest="inputs", nargs="+", required=True, help="input CSV files from run")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="replay one input, checking the staircase against a reference at every frontier move")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--seed", type=int, default=0, help="input seed to replay (default 0)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # ScenarioError and BenchError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
