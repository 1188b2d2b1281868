"""Benchmark orchestration: trial runs, CSV rows, aggregation, reports.

One CSV row = one (input draw, algorithm) pair.  Rows are replayable: the
seed column alone regenerates the input (trial t of a run with base seed s
uses seed s + t, drawn from a fresh PCG64 stream).  wall_time_ns is 0 unless
timing is requested, so repeat invocations produce byte-identical files.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .distributions import SeededRng, sample_input
from .engine import RunStats, run_maxima
from .geometry import BaselineStats, InputSet, brute_force_maxima, sort_scan_maxima, verify_certificate
from .learning import TrainedModel

ALGORITHMS = ("self_improving", "sort_scan", "brute_force")

# the quadratic oracle is only run at and below this size; larger instances
# get an explicit skipped row instead of silently missing data
BRUTE_FORCE_LIMIT = 4096


class BenchError(ValueError):
    """Bad benchmark input (unknown file shape, empty data, bad parameters)."""


@dataclass
class ReportRow:
    """One measured algorithm execution, in CSV column order."""

    scenario: str
    n: int
    seed: int
    phase: str
    algorithm: str
    tree_steps: int
    dominance_checks: int
    sort_comparisons: int
    update_sorted_points: int
    entropy_total: float
    wall_time_ns: int
    verified: bool | None  # None = skipped

    def to_csv(self) -> list[str]:
        verified = "skipped" if self.verified is None else ("true" if self.verified else "false")
        return [str(getattr(self, f.name)) for f in fields(self)[:-1]] + [verified]

    @classmethod
    def from_csv(cls, record: dict, where: str) -> "ReportRow":
        try:
            verified_raw = record["verified"]
            if verified_raw not in ("true", "false", "skipped"):
                raise ValueError(f"bad verified value {verified_raw!r}")
            parsed = {f.name: _PARSE[f.type](record[f.name]) for f in fields(cls)[:-1]}
            return cls(**parsed, verified=None if verified_raw == "skipped" else verified_raw == "true")
        except (KeyError, ValueError) as e:
            raise BenchError(f"{where}: malformed row: {e}") from None

    def work_per_point(self) -> float:
        return (self.tree_steps + self.dominance_checks + self.sort_comparisons) / self.n


CSV_HEADER = [f.name for f in fields(ReportRow)]
_PARSE = {"str": str, "int": int, "float": float}  # ReportRow's annotations, read as strings


@dataclass
class ExperimentPlan:
    """A batch of runs: one trained model driven over `trials` fresh inputs."""

    model: TrainedModel
    trials: int
    seed: int
    timing: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise BenchError(f"trials must be >= 1, got {self.trials}")


def _trial_input(model: TrainedModel, seed: int, trial: int) -> tuple[int, InputSet]:
    eff = (seed + trial) % 2**64
    return eff, sample_input(model.scenario, SeededRng(eff))


def run_trials(plan: ExperimentPlan) -> list[ReportRow]:
    """Execute the plan; one row per (trial, algorithm), deterministic order."""
    model = plan.model
    name = model.scenario.name
    n = model.n
    rows: list[ReportRow] = []
    for t in range(plan.trials):
        eff, inp = _trial_input(model, plan.seed, t)
        for alg in ALGORITHMS:
            tree_steps = dominance = sort_cmp = upd_points = 0
            entropy = 0.0
            wall = 0
            verified: bool | None
            if alg == "self_improving":
                stats = RunStats()
                t0 = time.perf_counter_ns() if plan.timing else 0
                cert = run_maxima(model, inp, stats)
                if plan.timing:
                    wall = time.perf_counter_ns() - t0
                tree_steps = stats.tree_steps
                dominance = stats.dominance_checks
                sort_cmp = stats.update_sort_comparisons
                upd_points = stats.update_sorted_points
                entropy = model.entropy_total
                verified = verify_certificate(inp, cert)
            elif alg == "sort_scan":
                bstats = BaselineStats()
                t0 = time.perf_counter_ns() if plan.timing else 0
                cert = sort_scan_maxima(inp, bstats)
                if plan.timing:
                    wall = time.perf_counter_ns() - t0
                dominance = bstats.comparisons
                sort_cmp = bstats.sort_cost
                verified = verify_certificate(inp, cert)
            else:  # brute_force
                if n > BRUTE_FORCE_LIMIT:
                    verified = None  # skipped marker, no counters
                else:
                    t0 = time.perf_counter_ns() if plan.timing else 0
                    cert = brute_force_maxima(inp)
                    if plan.timing:
                        wall = time.perf_counter_ns() - t0
                    dominance = n * (n - 1)  # the oracle evaluates every ordered pair
                    verified = verify_certificate(inp, cert)
            rows.append(
                ReportRow(
                    scenario=name,
                    n=n,
                    seed=eff,
                    phase="limiting",
                    algorithm=alg,
                    tree_steps=tree_steps,
                    dominance_checks=dominance,
                    sort_comparisons=sort_cmp,
                    update_sorted_points=upd_points,
                    entropy_total=entropy,
                    wall_time_ns=wall,
                    verified=verified,
                )
            )
    return rows


def write_rows_csv(rows: list[ReportRow], path) -> None:
    """UTF-8, LF line endings, header always present."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.to_csv())


def read_rows_csv(path) -> list[ReportRow]:
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != CSV_HEADER:
                raise BenchError(f"{path}: unexpected header {reader.fieldnames}")
            rows = [ReportRow.from_csv(rec, f"{path}:{k + 2}") for k, rec in enumerate(reader)]
        except csv.Error as e:  # e.g. a field over csv's size limit
            raise BenchError(f"{path}:{reader.reader.line_num}: {e}") from None
    return rows


# ---------------------------------------------------------------------------
# aggregation and report


@dataclass
class SummaryRow:
    scenario: str
    n: int
    algorithm: str
    rows: int
    mean_work_per_point: float
    mean_entropy_total: float
    all_verified: bool


def aggregate_rows(rows: list[ReportRow]) -> list[SummaryRow]:
    """Group measured rows by (scenario, n, algorithm); skipped rows drop out."""
    groups: dict[tuple[str, int, str], list[ReportRow]] = {}
    for row in rows:
        if row.verified is None:
            continue
        groups.setdefault((row.scenario, row.n, row.algorithm), []).append(row)
    if not groups:
        raise BenchError("no measured rows to aggregate")
    out = []
    for (scenario, n, alg), grp in sorted(groups.items()):
        out.append(
            SummaryRow(
                scenario=scenario,
                n=n,
                algorithm=alg,
                rows=len(grp),
                mean_work_per_point=sum(r.work_per_point() for r in grp) / len(grp),
                mean_entropy_total=sum(r.entropy_total for r in grp) / len(grp),
                all_verified=all(r.verified for r in grp),
            )
        )
    return out


def write_report(rows: list[ReportRow], out_dir) -> list[Path]:
    """Write summary.csv and the two SVG charts; returns the paths written."""
    from .svgchart import line_chart, scatter_chart

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = aggregate_rows(rows)

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["scenario", "n", "algorithm", "rows", "mean_work_per_point", "mean_entropy_total", "all_verified"]
        )
        for s in summary:
            writer.writerow(
                [
                    s.scenario,
                    str(s.n),
                    s.algorithm,
                    str(s.rows),
                    repr(s.mean_work_per_point),
                    repr(s.mean_entropy_total),
                    "true" if s.all_verified else "false",
                ]
            )

    series: dict[str, list[tuple[float, float]]] = {}
    for s in summary:
        series.setdefault(f"{s.scenario}/{s.algorithm}", []).append((float(s.n), s.mean_work_per_point))
    work_path = out_dir / "work_per_point.svg"
    line_chart(
        work_path,
        series,
        title="mean work per point vs n",
        x_label="n (log scale)",
        y_label="comparisons + steps per point",
    )

    groups: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row.algorithm == "self_improving" and row.verified is not None:
            groups.setdefault(row.scenario, []).append(
                (row.n + row.entropy_total, float(row.tree_steps + row.dominance_checks))
            )
    entropy_path = out_dir / "cost_vs_entropy.svg"
    scatter_chart(
        entropy_path,
        groups,
        title="engine cost vs (n + total entropy)",
        x_label="n + entropy_total (bits)",
        y_label="tree_steps + dominance_checks",
    )
    return [summary_path, work_path, entropy_path]
