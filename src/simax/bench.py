"""Benchmark orchestration: trial runs, CSV rows, aggregation, reports.

One CSV row = one (input draw, algorithm) pair.  Rows are replayable: the
seed column alone regenerates the input (trial t of a run with base seed s
uses seed s + t, drawn from a fresh PCG64 stream).  wall_time_ns is 0 unless
timing is requested, so repeat invocations produce byte-identical files.

ALGORITHMS maps each name to a runner that run_trials times, zero-fills and
verifies alike; both CSV files share one cell codec.  A row no run could make
(n < 1, a seed outside [0, 2**64), a negative or non-finite counter, wall
time or entropy_total, or the wrong cell count) is rejected with its
file:line.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .distributions import SeededRng, sample_input
from .engine import RunStats, run_maxima
from .geometry import BaselineStats, InputSet, brute_force_maxima, sort_scan_maxima, verify_certificate
from .learning import TrainedModel

# the quadratic oracle is only run at and below this size; larger instances
# get an explicit skipped row instead of silently missing data
BRUTE_FORCE_LIMIT = 4096


class BenchError(ValueError):
    """Bad benchmark input (unknown file shape, empty data, bad parameters)."""


@dataclass
class ReportRow:
    """One algorithm execution, in CSV column order; unfilled counters stay 0."""

    scenario: str
    n: int
    seed: int
    phase: str
    algorithm: str
    tree_steps: int = 0
    dominance_checks: int = 0
    sort_comparisons: int = 0
    update_sorted_points: int = 0
    entropy_total: float = 0.0
    wall_time_ns: int = 0
    verified: bool | None = None  # None = skipped

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.seed < 2**64:  # SeededRng could not replay it
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for f in fields(self)[5:-1]:  # the counters, entropy_total and wall_time_ns
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0, got {getattr(self, f.name)}")

    def to_csv(self) -> list[str]:
        return _cells(self)

    @classmethod
    def from_csv(cls, cells: list[str], where: str) -> "ReportRow":
        try:
            if len(cells) != len(CSV_HEADER):
                raise ValueError(f"{len(cells)} cells, expected {len(CSV_HEADER)}")
            return cls(*(_parse(f, cell) for f, cell in zip(fields(cls), cells)))
        except ValueError as e:
            raise BenchError(f"{where}: malformed row: {e}") from None

    def work_per_point(self) -> float:
        return (self.tree_steps + self.dominance_checks + self.sort_comparisons) / self.n


CSV_HEADER = [f.name for f in fields(ReportRow)]
# keyed by ReportRow's annotations, which are read as strings
_PARSE = {"str": str, "int": int, "float": float, "bool | None": {"true": True, "false": False, "skipped": None}.__getitem__}


def _parse(f, cell: str):
    try:
        return _PARSE[f.type](cell)
    except (KeyError, ValueError):
        raise ValueError(f"bad {f.name} value {cell!r}") from None


def _cell(value) -> str:
    """The one CSV cell format: true/false, skipped for None, str() otherwise."""
    if value is None:
        return "skipped"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cells(row) -> list[str]:
    return [_cell(getattr(row, f.name)) for f in fields(row)]


def _write_csv(path, cls, rows) -> None:
    """UTF-8, LF line endings, header (cls's field names) always present."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f.name for f in fields(cls)])
        writer.writerows(_cells(row) for row in rows)


# ---------------------------------------------------------------------------
# trials: each runner takes (model, input) and returns (certificate, the
# ReportRow counters it fills)


def _run_engine(model: TrainedModel, inp: InputSet):
    stats = RunStats()
    cert = run_maxima(model, inp, stats)
    return cert, dict(
        tree_steps=stats.tree_steps,
        dominance_checks=stats.dominance_checks,
        sort_comparisons=stats.update_sort_comparisons,
        update_sorted_points=stats.update_sorted_points,
        entropy_total=model.entropy_total,
    )


def _run_sort_scan(model: TrainedModel, inp: InputSet):
    stats = BaselineStats()
    cert = sort_scan_maxima(inp, stats)
    return cert, dict(dominance_checks=stats.comparisons, sort_comparisons=stats.sort_cost)


def _run_brute_force(model: TrainedModel, inp: InputSet):
    return brute_force_maxima(inp), dict(dominance_checks=model.n * (model.n - 1))  # every ordered pair


ALGORITHMS = {"self_improving": _run_engine, "sort_scan": _run_sort_scan, "brute_force": _run_brute_force}


def _trial_input(model: TrainedModel, seed: int, trial: int) -> tuple[int, InputSet]:
    eff = (seed + trial) % 2**64
    return eff, sample_input(model.scenario, SeededRng(eff))


def run_trials(model: TrainedModel, trials: int, seed: int, timing: bool = False) -> list[ReportRow]:
    """Drive model over `trials` fresh inputs; one row per (trial, algorithm), deterministic order."""
    if trials < 1:
        raise BenchError(f"trials must be >= 1, got {trials}")
    rows: list[ReportRow] = []
    for t in range(trials):
        eff, inp = _trial_input(model, seed, t)
        for alg, runner in ALGORITHMS.items():
            counters, wall, verified = {}, 0, None
            if alg != "brute_force" or model.n <= BRUTE_FORCE_LIMIT:
                t0 = time.perf_counter_ns()
                cert, counters = runner(model, inp)
                if timing:
                    wall = time.perf_counter_ns() - t0
                verified = verify_certificate(inp, cert)
            rows.append(
                ReportRow(model.scenario.name, model.n, eff, "limiting", alg, **counters, wall_time_ns=wall, verified=verified)
            )
    return rows


def write_rows_csv(rows: list[ReportRow], path) -> None:
    _write_csv(path, ReportRow, rows)


def read_rows_csv(path) -> list[ReportRow]:
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise BenchError(f"{path}: unexpected header {header}")
            rows = [ReportRow.from_csv(cells, f"{path}:{reader.line_num}") for cells in reader if cells]
        except csv.Error as e:  # e.g. a field over csv's size limit
            raise BenchError(f"{path}:{reader.line_num}: {e}") from None
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
    """Write summary.csv and the SVG charts; returns the paths written.

    cost_vs_entropy.svg plots measured self_improving rows, so it is skipped
    when there are none.
    """
    from .svgchart import line_chart, scatter_chart

    summary = aggregate_rows(rows)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_path = out_dir / "summary.csv"
    _write_csv(summary_path, SummaryRow, summary)

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
    if not groups:  # no measured engine row: nothing to scatter
        return [summary_path, work_path]
    entropy_path = out_dir / "cost_vs_entropy.svg"
    scatter_chart(
        entropy_path,
        groups,
        title="engine cost vs (n + total entropy)",
        x_label="n + entropy_total (bits)",
        y_label="tree_steps + dominance_checks",
    )
    return [summary_path, work_path, entropy_path]
