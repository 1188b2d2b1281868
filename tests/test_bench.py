import csv
import hashlib
import json

import numpy as np
import pytest

from simax import bench, engine
from simax.bench import (
    ALGORITHMS,
    CSV_HEADER,
    BenchError,
    ReportRow,
    aggregate_rows,
    read_rows_csv,
    run_trials,
    write_report,
    write_rows_csv,
)
from simax.cli import main
from simax.learning import SearchForest, load_model, save_model

EXPECTED_HEADER = (
    "scenario,n,seed,phase,algorithm,tree_steps,dominance_checks,"
    "sort_comparisons,update_sorted_points,entropy_total,wall_time_ns,verified"
)


def _row(**overrides) -> ReportRow:
    base = dict(
        scenario="uniform_square",
        n=16,
        seed=3,
        phase="limiting",
        algorithm="self_improving",
        tree_steps=40,
        dominance_checks=20,
        sort_comparisons=5,
        update_sorted_points=7,
        entropy_total=12.25,
        wall_time_ns=0,
        verified=True,
    )
    base.update(overrides)
    return ReportRow(**base)


# ---------------------------------------------------------------------------
# rows and files


def test_csv_header_is_frozen(tmp_path):
    path = tmp_path / "empty.csv"
    write_rows_csv([], path)
    data = path.read_bytes()
    assert data == (EXPECTED_HEADER + "\n").encode()
    assert b"\r" not in data


def test_row_round_trip_through_file(tmp_path):
    rows = [
        _row(),
        _row(algorithm="sort_scan", verified=False, entropy_total=0.0),
        _row(algorithm="brute_force", verified=None, tree_steps=0),
    ]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    assert read_rows_csv(path) == rows


def test_verified_column_uses_three_states(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv([_row(verified=True), _row(verified=False), _row(verified=None)], path)
    states = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
    assert states == ["true", "false", "skipped"]


def test_read_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(BenchError, match="unexpected header"):
        read_rows_csv(path)


def test_read_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    good = ",".join(_row().to_csv())
    mangled = good.replace("40", "forty", 1)
    path.write_text(EXPECTED_HEADER + "\n" + mangled + "\n", encoding="utf-8")
    with pytest.raises(BenchError, match="bad.csv:2"):
        read_rows_csv(path)
    path.write_text(EXPECTED_HEADER + "\n" + good.replace("true", "maybe") + "\n", encoding="utf-8")
    with pytest.raises(BenchError, match="verified"):
        read_rows_csv(path)


@pytest.mark.parametrize(
    "column, value",
    [
        ("n", "0"),
        ("n", "-4"),
        ("seed", "-1"),
        ("seed", "18446744073709551616"),
        ("tree_steps", "-1"),
        ("dominance_checks", "-2"),
        ("sort_comparisons", "-3"),
        ("update_sorted_points", "-4"),
        ("wall_time_ns", "-5"),
        ("entropy_total", "nan"),
        ("entropy_total", "inf"),
        ("entropy_total", "-0.5"),
    ],
)
def test_report_rejects_impossible_values(tmp_path, capsys, column, value):
    cells = _row().to_csv()
    cells[CSV_HEADER.index(column)] = value
    bad = tmp_path / "bad.csv"
    bad.write_text(EXPECTED_HEADER + "\n" + ",".join(cells) + "\n", encoding="utf-8")
    assert main(["report", "--in", str(bad), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "bad.csv:2: malformed row" in err and column in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("cells", [_row().to_csv() + ["surplus"], _row().to_csv()[:-1]], ids=["extra", "missing"])
def test_read_rejects_rows_with_the_wrong_cell_count(tmp_path, cells):
    path = tmp_path / "bad.csv"
    lines = [EXPECTED_HEADER, ",".join(_row().to_csv()), ",".join(cells)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(BenchError, match=f"bad.csv:3: malformed row: {len(cells)} cells, expected 12"):
        read_rows_csv(path)


def test_read_names_the_line_of_an_oversized_field(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(EXPECTED_HEADER + '\n"' + "x" * 200_000 + '"\n', encoding="utf-8")
    with pytest.raises(BenchError, match="big.csv:2: field larger than field limit"):
        read_rows_csv(path)


def test_plan_validation(model_cache):
    model = model_cache("uniform_square", 16)
    with pytest.raises(BenchError, match="trials"):
        run_trials(model, 0, 0)


# ---------------------------------------------------------------------------
# trials


def test_run_trials_layout_and_verification(model_cache):
    model = model_cache("uniform_square", 16)
    rows = run_trials(model, 3, 50)
    assert len(rows) == 9
    assert [r.algorithm for r in rows[:3]] == list(ALGORITHMS)
    assert [r.seed for r in rows] == [50, 50, 50, 51, 51, 51, 52, 52, 52]
    for r in rows:
        assert r.scenario == "uniform_square" and r.n == 16 and r.phase == "limiting"
        assert r.verified is True
        assert r.wall_time_ns == 0
        if r.algorithm == "self_improving":
            assert r.entropy_total == model.entropy_total
            assert r.tree_steps > 0
        elif r.algorithm == "sort_scan":
            assert r.entropy_total == 0.0
            assert r.sort_comparisons > 0
        else:
            assert r.dominance_checks == 16 * 15  # every ordered pair


def test_trial_inputs_replay_from_the_seed_column(model_cache):
    model = model_cache("uniform_square", 16)
    a = run_trials(model, 2, 7)
    b = run_trials(model, 1, 8)
    # trial 1 of seed 7 and trial 0 of seed 8 are the same input: seed column 8
    assert [r for r in a if r.seed == 8] == b


def test_run_trials_rejects_a_seed_that_is_not_an_integer(model_cache):
    # a seed cell of 1.5 would not read back
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_trials(model_cache("uniform_square", 16), 1, seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer, got True"):  # SeededRng takes no bool either
        run_trials(model_cache("uniform_square", 16), 1, seed=True)


def test_run_trials_takes_numpy_integer_seeds(model_cache):
    # a numpy integer's seed + trial would overflow its own type before the wrap to 64 bits
    model = model_cache("uniform_square", 16)
    want = run_trials(model, 2, seed=5)
    assert run_trials(model, 2, seed=np.int64(5)) == want
    assert run_trials(model, 2, seed=np.uint64(5)) == want
    wrapped = run_trials(model, 2, seed=np.uint64(2**64 - 1))
    assert wrapped == run_trials(model, 2, seed=2**64 - 1)
    assert [r.seed for r in wrapped] == [2**64 - 1] * 3 + [0] * 3
    assert all(type(r.seed) is int for r in wrapped)


def test_timing_flag_fills_wall_time(model_cache):
    model = model_cache("uniform_square", 16)
    rows = run_trials(model, 1, 0, timing=True)
    assert all(r.wall_time_ns > 0 for r in rows)


def test_oversized_inputs_skip_the_quadratic_oracle(model_cache, monkeypatch):
    model = model_cache("uniform_square", 16)
    monkeypatch.setattr(bench, "BRUTE_FORCE_LIMIT", 8)
    rows = run_trials(model, 1, 0)
    brute = [r for r in rows if r.algorithm == "brute_force"]
    assert len(brute) == 1
    assert brute[0].verified is None
    assert brute[0].dominance_checks == 0


# ---------------------------------------------------------------------------
# aggregation and report


def test_aggregate_groups_and_averages():
    rows = [
        _row(tree_steps=10, dominance_checks=0, sort_comparisons=0),
        _row(tree_steps=30, dominance_checks=0, sort_comparisons=0),
        _row(algorithm="sort_scan", verified=None),
    ]
    summary = aggregate_rows(rows)
    assert len(summary) == 1  # the skipped row drops out
    s = summary[0]
    assert (s.scenario, s.n, s.algorithm, s.rows) == ("uniform_square", 16, "self_improving", 2)
    assert s.mean_work_per_point == pytest.approx((10 / 16 + 30 / 16) / 2)
    assert s.all_verified


def test_aggregate_requires_measured_rows():
    with pytest.raises(BenchError, match="no measured rows"):
        aggregate_rows([])
    with pytest.raises(BenchError, match="no measured rows"):
        aggregate_rows([_row(verified=None)])


def test_write_report_emits_summary_and_charts(tmp_path, model_cache):
    model = model_cache("uniform_square", 16)
    rows = run_trials(model, 2, 0)
    paths = write_report(rows, tmp_path / "report")
    names = [p.name for p in paths]
    assert names == ["summary.csv", "work_per_point.svg", "cost_vs_entropy.svg"]
    for p in paths:
        assert p.exists() and p.stat().st_size > 0
    with open(paths[0], encoding="utf-8", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert {r["algorithm"] for r in records} == set(ALGORITHMS)
    svg = paths[1].read_text(encoding="utf-8")
    assert svg.startswith("<svg xmlns=") and svg.endswith("</svg>\n")
    assert "\r" not in svg


def test_report_without_engine_rows_skips_the_scatter_chart(tmp_path):
    rows = [_row(algorithm="sort_scan", entropy_total=0.0), _row(verified=None, tree_steps=0)]
    paths = write_report(rows, tmp_path / "report")
    assert paths == [tmp_path / "report" / "summary.csv", tmp_path / "report" / "work_per_point.svg"]
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == ["summary.csv", "work_per_point.svg"]


# sha256 of `simax run` (uniform_square n=16, training seed 101, base seed 50,
# 3 trials, BRUTE_FORCE_LIMIT 8) and of `simax report` on its rows
PINNED_PIPELINE_SHA256 = {
    "rows.csv": "143ada6cff93f0bf26894f091ba92d8307728d9c496ae484d4deecc952e40246",
    "summary.csv": "aa7acdecc486c8acc0aeb2ea510811638082c24eec61fed83debdea88edb3ffe",
    "work_per_point.svg": "bf7ed9c24c86bde105a9c864506f1b51c9bc478d560e8216b16d3c1551ae5d80",
    "cost_vs_entropy.svg": "e8db4a3d778b9697e1c3048f9b9f37e5be0dca93f20fdf453eb84f04e6039c60",
}


def test_pipeline_output_bytes_are_pinned(tmp_path, model_cache, monkeypatch):
    monkeypatch.setattr(bench, "BRUTE_FORCE_LIMIT", 8)  # include skipped brute_force rows
    model_path = tmp_path / "model.json"
    save_model(model_cache("uniform_square", 16), model_path)
    rows_path = tmp_path / "rows.csv"
    assert main(["run", "--model", str(model_path), "--trials", "3", "--seed", "50", "--out", str(rows_path)]) == 0
    assert main(["report", "--in", str(rows_path), "--out", str(tmp_path / "report")]) == 0
    written = [rows_path, *sorted((tmp_path / "report").iterdir())]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == PINNED_PIPELINE_SHA256


# ---------------------------------------------------------------------------
# command line


def test_cli_round_trip(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    rc = main(
        ["train", "--scenario", "uniform_square", "--n", "16", "--seed", "9", "--out", str(model_path)]
    )
    assert rc == 0
    assert load_model(model_path).n == 16

    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert main(["run", "--model", str(model_path), "--trials", "4", "--seed", "2", "--out", str(csv_a)]) == 0
    assert main(["run", "--model", str(model_path), "--trials", "4", "--seed", "2", "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert len(read_rows_csv(csv_a)) == 12

    report_dir = tmp_path / "report"
    assert main(["report", "--in", str(csv_a), str(csv_b), "--out", str(report_dir)]) == 0
    assert (report_dir / "summary.csv").exists()

    assert main(["verify", "--model", str(model_path), "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_train_reports_unwritable_output(tmp_path):
    rc = main(
        [
            "train",
            "--scenario",
            "uniform_square",
            "--n",
            "16",
            "--out",
            str(tmp_path / "missing_dir" / "model.json"),
        ]
    )
    assert rc == 2


def test_cli_train_needs_n_for_builtins(tmp_path, capsys):
    rc = main(["train", "--scenario", "uniform_square", "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "--n" in capsys.readouterr().err


def test_cli_train_from_scenario_file(tmp_path):
    from simax import build_scenario, dumps_scenario

    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(dumps_scenario(build_scenario("two_level", 8)), encoding="utf-8")
    rc = main(["train", "--scenario", str(spec_path), "--out", str(tmp_path / "m.json")])
    assert rc == 0
    assert load_model(tmp_path / "m.json").scenario.name == "two_level"


def test_cli_run_error_paths(tmp_path, capsys):
    assert main(["run", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 1
    assert "error" in capsys.readouterr().err

    model_path = tmp_path / "model.json"
    main(["train", "--scenario", "uniform_square", "--n", "16", "--out", str(model_path)])
    rc = main(["run", "--model", str(model_path), "--trials", "0", "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "trials" in capsys.readouterr().err


def test_cli_timing_breaks_byte_reproducibility_knowingly(tmp_path):
    model_path = tmp_path / "model.json"
    main(["train", "--scenario", "uniform_square", "--n", "16", "--out", str(model_path)])
    out = tmp_path / "t.csv"
    assert main(["run", "--model", str(model_path), "--trials", "1", "--timing", "--out", str(out)]) == 0
    rows = read_rows_csv(out)
    assert all(r.wall_time_ns > 0 for r in rows)


def test_cli_report_rejects_garbage_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n", encoding="utf-8")
    assert main(["report", "--in", str(bad), "--out", str(tmp_path / "r")]) == 1
    assert "unexpected header" in capsys.readouterr().err


def test_cli_rejects_too_deeply_nested_files(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    assert main(["verify", "--model", str(deep)]) == 1
    assert main(["train", "--scenario", str(deep), "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.count("nested too deeply") == 2


def test_model_file_is_a_json_header_line_and_raw_columns(tmp_path):
    model_path = tmp_path / "model.json"
    main(["train", "--scenario", "uniform_square", "--n", "16", "--out", str(model_path)])
    data = model_path.read_bytes()
    end = data.index(b"\n")
    obj = json.loads(data[:end])
    assert obj["format"] == "simax-model"
    assert obj["version"] == 10
    assert "rng_algorithm" not in obj
    assert "per_point" not in obj["scenario"] and obj["scenario"]["kind"] == {"dtype": "<u1", "count": 16}  # the scenario is columns too
    # each column is a dtype and a count; its little-endian bytes follow the header line in the header's order, and nothing else does
    columns = [*obj["scenario"].values()][2:] + [obj["boundaries"], obj["forest"]["bitmap"], obj["forest"]["splits"], obj["entropy_per_point"]]
    assert all(c.keys() == {"dtype", "count"} for c in columns)
    offsets = np.cumsum([end + 1] + [np.dtype(c["dtype"]).itemsize * c["count"] for c in columns])
    assert offsets[-1] == len(data)
    at = dict(zip(("boundaries", "bitmap", "splits"), offsets[-5:-2]))
    assert obj["boundaries"]["dtype"] == "<f8"
    boundaries = np.frombuffer(data, dtype="<f8", count=obj["boundaries"]["count"], offset=at["boundaries"])
    # which nodes split, one bit each in level order, and the splits of those nodes: "<u2" while every slab index fits
    assert obj["forest"]["bitmap"]["dtype"] == "<u1" and obj["forest"]["splits"]["dtype"] == "<u2"
    bitmap = np.frombuffer(data, dtype="<u1", count=obj["forest"]["bitmap"]["count"], offset=at["bitmap"])
    splits = np.frombuffer(data, dtype="<u2", count=obj["forest"]["splits"]["count"], offset=at["splits"])
    inner = np.unpackbits(bitmap).astype(bool)
    level_order = np.full(inner.size, -1)
    level_order[inner] = splits
    forest = SearchForest.from_columns(boundaries.size + 1, 16, bitmap, splits)  # decodes as exactly n trees, or raises
    assert forest.split.tolist() == level_order[: len(forest.split)].tolist() and len(forest.split) > inner.size - 8
    assert boundaries.tolist() == load_model(model_path).slabs.boundary_list()


def test_cli_verify_reports_a_missing_model_field(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--scenario", "uniform_square", "--n", "16", "--out", str(model_path)]) == 0
    data = model_path.read_bytes()
    end = data.index(b"\n")
    obj = json.loads(data[:end])
    # the scenario's columns lead the payload, so they go with it
    skip = sum(np.dtype(c["dtype"]).itemsize * c["count"] for c in obj.pop("scenario").values() if isinstance(c, dict))
    model_path.write_bytes(json.dumps(obj).encode() + b"\n" + data[end + 1 + skip :])
    assert main(["verify", "--model", str(model_path)]) == 1
    assert "missing model field 'scenario'" in capsys.readouterr().err


def test_cli_verify_reports_a_broken_frontier_invariant(tmp_path, capsys, monkeypatch, model_cache):
    model_path = tmp_path / "model.json"
    save_model(model_cache("two_level", 256), model_path)
    real_update = engine.update_step

    def lossy_update(state, stats):
        real_update(state, stats)
        if len(state.maxima_rev) > 1:
            state.maxima_rev.pop(0)

    monkeypatch.setattr(engine, "update_step", lossy_update)
    assert main(["verify", "--model", str(model_path), "--seed", "5"]) == 1
    assert capsys.readouterr().out.startswith("FAIL: frontier invariant broken at slab ")


def test_cli_verify_reports_a_leftmost_maximum_left_of_the_frontier(tmp_path, capsys, monkeypatch, model_cache):
    model_path = tmp_path / "model.json"
    save_model(model_cache("uniform_square", 256), model_path)
    real_update = engine.update_step

    def misplacing_update(state, stats):
        real_update(state, stats)
        state.phat = state.drained[-1]

    monkeypatch.setattr(engine, "update_step", misplacing_update)
    assert main(["verify", "--model", str(model_path), "--seed", "5"]) == 1
    assert capsys.readouterr().out.startswith("FAIL: leftmost maximum ")
