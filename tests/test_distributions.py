import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simax import (
    ScenarioError,
    ScenarioSpec,
    SeededRng,
    brute_force_maxima,
    build_scenario,
    distributions,
    dumps_scenario,
    loads_scenario,
    sample_input,
    scenario_from_dict,
    scenario_to_dict,
)


# ---------------------------------------------------------------------------
# per-point objects, as scenario JSON writes them


def _mass(x, y):
    return {"kind": "point_mass", "x": x, "y": y}


def _rect(x0, x1, y0, y1):
    return {"kind": "uniform_rect", "x0": x0, "x1": x1, "y0": y0, "y1": y1}


def _segment(ax, ay, bx, by):
    return {"kind": "uniform_segment", "ax": ax, "ay": ay, "bx": bx, "by": by}


def _mixture(atoms, weights):
    return {"kind": "finite_mixture", "atoms": [{"x": x, "y": y, "weight": w} for (x, y), w in zip(atoms, weights)]}


def _spec(name, per_point):
    """The spec of a list of per-point objects, read as scenario JSON."""
    return scenario_from_dict({"name": name, "n": len(per_point), "per_point": list(per_point)})


# ---------------------------------------------------------------------------
# built-ins


def test_uniform_square_shape():
    spec = build_scenario("uniform_square", 4)
    assert spec.n == 4
    assert scenario_to_dict(spec)["per_point"] == [_rect(0.0, 1.0, 0.0, 1.0)] * 4


def test_staircase_line_layout():
    per_point = scenario_to_dict(build_scenario("staircase_line", 8))["per_point"]
    assert per_point[:4] == [_mass(1.0, 4.0), _mass(2.0, 3.0), _mass(3.0, 2.0), _mass(4.0, 1.0)]
    line = per_point[4:]
    assert all(d["kind"] == "uniform_segment" for d in line)
    # the whole segment lies strictly below and left of the lowest stair
    seg = line[0]
    assert max(seg["ay"], seg["by"]) < 1.0
    assert max(seg["ax"], seg["bx"]) < 4.0


def test_staircase_line_maxima_are_always_the_staircase():
    n = 16
    spec = build_scenario("staircase_line", n)
    rng = SeededRng(5)
    expected = frozenset(range(n // 2))
    for _ in range(100):
        inp = sample_input(spec, rng)
        assert brute_force_maxima(inp).maxima_set() == expected


def test_two_level_is_all_two_atom_mixtures():
    n = 6
    spec = build_scenario("two_level", n)
    assert spec.n == n
    per_point = scenario_to_dict(spec)["per_point"]
    assert all(d["kind"] == "finite_mixture" and len(d["atoms"]) == 2 for d in per_point)
    # each high atom dominates every low atom of every position
    highs = [d["atoms"][0] for d in per_point]
    lows = [d["atoms"][1] for d in per_point]
    for h in highs:
        for lo in lows:
            assert h["x"] > lo["x"] and h["y"] > lo["y"]


def test_build_scenario_rejects_bad_sizes():
    with pytest.raises(ScenarioError):
        build_scenario("uniform_square", 1)
    with pytest.raises(ScenarioError):
        build_scenario("staircase_line", 7)
    with pytest.raises(ScenarioError):
        build_scenario("two_level", 9)
    with pytest.raises(ScenarioError, match="unknown"):
        build_scenario("gaussian_blob", 8)
    with pytest.raises(ScenarioError, match="unknown"):
        build_scenario("custom", 2)  # custom specs are ScenarioSpec(...) or scenario JSON


@pytest.mark.parametrize("n", [4.0, "4", True, None], ids=["float", "str", "bool", "None"])
def test_build_scenario_names_an_n_that_is_not_an_integer(n):
    with pytest.raises(ScenarioError, match=r"^n: expected an integer, got"):
        build_scenario("two_level", n)


def test_build_scenario_accepts_numpy_integers():
    assert build_scenario("two_level", np.int64(4)) == build_scenario("two_level", 4)
    assert build_scenario("staircase_line", np.uint16(6)).n == 6


def test_built_in_columns_match_their_per_point_definition():
    # the built-ins as the per-point objects they are defined by, computed with Python floats
    n, half = 10, 5
    t = [(i + 1) / (n + 1) for i in range(n)]
    per_point = {
        "uniform_square": [_rect(0.0, 1.0, 0.0, 1.0)] * n,
        "staircase_line": [_mass(float(i + 1), float(half - i)) for i in range(half)] + [_segment(0.5, 0.75, half - 0.5, 0.25)] * half,
        "two_level": [_mixture(((1.0 + ti, 2.0 - ti), (ti, 1.0 - ti)), (0.5, 0.5)) for ti in t],
    }
    for kind, dists in per_point.items():
        assert build_scenario(kind, n) == _spec(kind, dists)


# ---------------------------------------------------------------------------
# rng


def test_seeded_rng_is_reproducible():
    a = SeededRng(12345).random(8)
    b = SeededRng(12345).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, SeededRng(12346).random(8))
    assert isinstance(SeededRng(1).generator.bit_generator, np.random.PCG64)


def test_seed_range_checked():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(2**64)


@pytest.mark.parametrize("seed", [1.5, True, "7", np.float64(2.0), np.bool_(True)])
def test_seeded_rng_takes_only_integers(seed):
    # int() would read 1.5 as 1, True as 1 and "7" as 7, and the stream would replay a seed no caller gave
    with pytest.raises(ValueError, match="seed must be an integer"):
        SeededRng(seed)


def test_seeded_rng_takes_numpy_integers():
    assert SeededRng(np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert np.array_equal(SeededRng(np.int32(7)).random(4), SeededRng(7).random(4))


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_per_seed():
    spec = build_scenario("uniform_square", 32)
    a = sample_input(spec, SeededRng(7))
    b = sample_input(spec, SeededRng(7))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def test_point_mass_sampling_is_exact():
    spec = ScenarioSpec("custom", kind=[0, 0], mass_x=[2.5, 0.0], mass_y=[-1.0, 3.0])
    inp = sample_input(spec, SeededRng(0))
    assert inp.xs.tolist() == [2.5, 0.0]
    assert inp.ys.tolist() == [-1.0, 3.0]


def test_rect_sampling_stays_inside_and_consumes_two_draws():
    spec = _spec("custom", (_mass(9, 9), _rect(2.0, 3.0, -1.0, 0.5)))
    inp = sample_input(spec, SeededRng(11))
    assert 2.0 <= inp.xs[1] <= 3.0 and -1.0 <= inp.ys[1] <= 0.5
    # draws are consumed in point order: the mass takes none, the rect takes u[0], u[1]
    u = SeededRng(11).random(2)
    assert inp.xs[1] == 2.0 + 1.0 * u[0]
    assert inp.ys[1] == -1.0 + 1.5 * u[1]


def test_segment_sampling_is_collinear():
    seg = _segment(0.0, 0.0, 2.0, 4.0)
    spec = _spec("custom", (seg, seg))
    inp = sample_input(spec, SeededRng(3))
    for x, y in zip(inp.xs, inp.ys):
        assert y == pytest.approx(2.0 * x)
        assert 0.0 <= x <= 2.0


def test_mixture_sampling_hits_only_atoms_with_expected_rates():
    mix = _mixture(((0.0, 0.0), (5.0, 5.0)), (0.25, 0.75))
    spec = _spec("custom", (mix, mix))
    rng = SeededRng(21)
    hits = 0
    trials = 2000
    for _ in range(trials):
        inp = sample_input(spec, rng)
        for x in inp.xs:
            assert x in (0.0, 5.0)
        hits += int(inp.xs[0] == 5.0)
    assert abs(hits / trials - 0.75) < 0.05


def _interleaved_spec():
    """All four kinds in turn, so each group's uniforms sit at scattered offsets of the batch."""
    mix9 = _mixture([(k / 8, 1 - k / 8) for k in range(9)], [(k + 1) / 45 for k in range(9)])
    mix2 = _mixture(((0.0, 2.0), (2.0, 0.0)), (0.25, 0.75))
    cycle = (
        _mass(-0.0, 1.5),
        _rect(0.5, 0.5, -1.0, 1.0),  # degenerate in x
        mix9,
        _segment(0.0, 1.0, 3.0, -2.0),
        _rect(0.0, 1.0, 0.0, 2.0),
        mix2,
        _mass(2.0, -0.0),
        _segment(1.0, 1.0, 1.0, 4.0),
    )
    return _spec("interleaved", cycle * 4)


# sha256 of xs.tobytes() + ys.tobytes() for one draw of _interleaved_spec per seed
PINNED_INTERLEAVED_DRAWS = {
    0: "698f77c4dd99e9e6a14c51a6591a2e7f5a2e8f91bf8cbe31fa204a20fa9a98d0",
    1: "a33c70f4861d61506b0897ab359a0dc91ee83b940938c3239d45a9594c1d25ed",
    2: "bb01d3c6996de18e69a71cab8b26dfcce5b9c1e77d7789a9afcddaf53a89efd2",
}


def test_interleaved_kinds_draw_pinned_bytes():
    spec = _interleaved_spec()
    for seed, digest in PINNED_INTERLEAVED_DRAWS.items():
        inp = sample_input(spec, SeededRng(seed))
        assert np.signbit(inp.xs[0]) and np.signbit(inp.ys[6])  # point masses keep -0.0
        assert (inp.xs[1::8] == 0.5).all()
        assert hashlib.sha256(inp.xs.tobytes() + inp.ys.tobytes()).hexdigest() == digest


def _sample_reference(per_point, rng):
    """One draw, one position at a time from per-point objects: the reference for sample_input's column groups (same formulas, same uniform order)."""
    draws = {"point_mass": 0, "uniform_rect": 2, "uniform_segment": 1, "finite_mixture": 1}
    u = rng.random(sum(draws[d["kind"]] for d in per_point))
    xs, ys = np.empty(len(per_point)), np.empty(len(per_point))
    k = 0
    for i, d in enumerate(per_point):
        if d["kind"] == "point_mass":
            xs[i], ys[i] = d["x"], d["y"]
        elif d["kind"] == "uniform_rect":
            xs[i], ys[i] = d["x0"] + (d["x1"] - d["x0"]) * u[k], d["y0"] + (d["y1"] - d["y0"]) * u[k + 1]
        elif d["kind"] == "uniform_segment":
            xs[i], ys[i] = d["ax"] + (d["bx"] - d["ax"]) * u[k], d["ay"] + (d["by"] - d["ay"]) * u[k]
        else:
            w = np.array([a["weight"] for a in d["atoms"]])
            c = np.cumsum(w / w.sum())
            c[-1] = 1.0
            atom = d["atoms"][int((c <= u[k]).sum())]
            xs[i], ys[i] = atom["x"], atom["y"]
        k += draws[d["kind"]]
    return xs, ys


def _normalised_mixture(pairs):
    total = sum(w for _, w in pairs)
    return _mixture([a for a, _ in pairs], [w / total for _, w in pairs])


def _mixed_dist_strategy():
    """Every kind, with -0.0 coordinates, degenerate rectangles and segments, and mixtures of 1 to 3 and of 9 to 12 atoms."""
    coord = st.one_of(st.just(-0.0), st.integers(-50, 50).map(lambda v: v / 4), st.floats(-1e6, 1e6))
    extent = st.one_of(st.just(0.0), st.floats(0, 1e3))
    mass = st.builds(_mass, coord, coord)
    rect = st.builds(lambda x0, dx, y0, dy: _rect(x0, x0 + dx, y0, y0 + dy), coord, extent, coord, extent)
    seg = st.builds(_segment, coord, coord, coord, coord)
    atom = st.tuples(st.tuples(coord, coord), st.integers(1, 1000))
    narrow, wide = st.lists(atom, min_size=1, max_size=3), st.lists(atom, min_size=9, max_size=12)  # 9+ weights sum pairwise
    return st.one_of(mass, rect, seg, narrow.map(_normalised_mixture), wide.map(_normalised_mixture))


@settings(deadline=None)
@given(dists=st.lists(_mixed_dist_strategy(), min_size=1, max_size=24), seed=st.integers(0, 2**32))
def test_sampler_matches_the_per_position_reference(dists, seed):
    spec = _spec("mixed", dists)
    assert json.dumps(scenario_to_dict(spec)["per_point"]) == json.dumps(dists)  # columns give back the objects, -0.0 included
    rng, ref = SeededRng(seed), SeededRng(seed)
    for _ in range(3):
        inp = sample_input(spec, rng)
        xs, ys = _sample_reference(dists, ref)
        assert inp.xs.tobytes() == xs.tobytes() and inp.ys.tobytes() == ys.tobytes()


def test_mixture_tables_hold_one_cell_per_atom():
    # one wide mixture must not pad every other mixture's table to its width
    pair = _mixture(((0.0, 1.0), (1.0, 0.0)), (0.25, 0.75))
    wide = _mixture([(k / 5000, 1 - k / 5000) for k in range(5000)], [1 / 5000] * 5000)
    tenths = _mixture([(k / 10, 1 - k / 10) for k in range(10)], [0.1] * 10)  # cumsum ends at 1 - 2**-53
    dists = (pair,) * 1023 + (wide, tenths) + (pair,) * 1023
    spec = _spec("wide", dists)
    assert sum(cw.size for _, _, cw, *_ in spec._mixtures) == 2046 * 2 + 5000 + 10
    assert all((cw[-1] == 1.0).all() for _, _, cw, *_ in spec._mixtures)  # so no draw < 1 runs past a mixture's last atom
    inp = sample_input(spec, SeededRng(3))
    xs, ys = _sample_reference(dists, SeededRng(3))
    assert inp.xs.tobytes() == xs.tobytes() and inp.ys.tobytes() == ys.tobytes()


def test_spec_columns_are_checked_by_name():
    with pytest.raises(ScenarioError, match=r"scenario: unknown columns \['xs'\]"):
        ScenarioSpec("s", kind=[0], mass_x=[0.0], mass_y=[0.0], xs=[1.0])
    with pytest.raises(ScenarioError, match=r"scenario\.mass_x: expected a 1-d column of numbers"):
        ScenarioSpec("s", kind=[0], mass_x=["a"], mass_y=[0.0])
    with pytest.raises(ScenarioError, match=r"scenario\.kind: expected a 1-d column of integers"):
        ScenarioSpec("s", kind=[0.0], mass_x=[0.0], mass_y=[0.0])
    with pytest.raises(ScenarioError, match=r"scenario\.y0: expected a 1-d column of numbers, got bool"):
        ScenarioSpec("s", kind=[1], x0=[0.0], x1=[1.0], y0=[False], y1=[1.0])
    with pytest.raises(ScenarioError, match=r"scenario\.x0: expected a 1-d column of numbers, got float64 of shape \(1, 1\)"):
        ScenarioSpec("s", kind=[2], x0=[[0.0]], x1=[1.0], y0=[0.0], y1=[1.0])
    with pytest.raises(ScenarioError, match=r"scenario\.mass_x: expected a 1-d column of numbers, got object"):
        ScenarioSpec("s", kind=[0], mass_x=[10**400], mass_y=[0.0])  # an integer too large for a float
    with pytest.raises(ScenarioError, match=r"scenario\.name: expected a string"):
        ScenarioSpec(None, kind=[0], mass_x=[0.0], mass_y=[0.0])
    spec = ScenarioSpec("s", kind=[0], mass_x=[1], mass_y=[2])
    assert spec.columns["mass_x"].dtype == np.float64 and spec.columns["kind"].dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):  # the sampling plan shares the columns
        spec.columns["mass_x"][0] = 5.0
    with pytest.raises(TypeError):
        spec.columns["mass_x"] = np.zeros(1)


class _UnhashableSpec(ScenarioSpec):
    def __hash__(self):
        raise AssertionError("a draw hashed the scenario")

    def __eq__(self, other):
        raise AssertionError("a draw compared the scenario")


def test_an_unhashable_spec_samples_without_being_hashed_or_compared():
    spec = _UnhashableSpec("u", **build_scenario("two_level", 8).columns)
    rng = SeededRng(4)
    for _ in range(100):
        sample_input(spec, rng)


def test_equal_specs_draw_alike():
    a = build_scenario("staircase_line", 16)
    b = loads_scenario(dumps_scenario(a))
    assert a == b and a is not b
    for seed in (0, 7):
        x, y = sample_input(a, SeededRng(seed)), sample_input(b, SeededRng(seed))
        assert np.array_equal(x.xs, y.xs) and np.array_equal(x.ys, y.ys)
    # equality is by column bytes, so a -0.0 coordinate is not 0.0
    assert ScenarioSpec("m", kind=[0], mass_x=[-0.0], mass_y=[1.0]) != ScenarioSpec("m", kind=[0], mass_x=[0.0], mass_y=[1.0])
    assert ScenarioSpec("m", kind=[0], mass_x=[0.0], mass_y=[1.0]) != ScenarioSpec("other", kind=[0], mass_x=[0.0], mass_y=[1.0])


# ---------------------------------------------------------------------------
# JSON round-trip


def _dist_strategy():
    coord = st.integers(-50, 50).map(lambda v: v / 4)
    mass = st.builds(_mass, coord, coord)
    rect = st.builds(
        lambda x0, dx, y0, dy: _rect(x0, x0 + dx, y0, y0 + dy),
        coord,
        st.integers(0, 20).map(lambda v: v / 4),
        coord,
        st.integers(0, 20).map(lambda v: v / 4),
    )
    seg = st.builds(_segment, coord, coord, coord, coord)
    atom = st.tuples(st.tuples(coord, coord), st.integers(1, 8))
    narrow, wide = st.lists(atom, min_size=1, max_size=4), st.lists(atom, min_size=9, max_size=12)  # 9+ weights sum pairwise
    return st.one_of(mass, rect, seg, narrow.map(_normalised_mixture), wide.map(_normalised_mixture))


@given(st.lists(_dist_strategy(), min_size=1, max_size=12))
def test_scenario_json_round_trip(dists):
    spec = _spec("random", dists)
    text = dumps_scenario(spec)
    again = loads_scenario(text)
    assert again == spec  # name and column bytes, weights included
    assert dumps_scenario(again) == text  # serialization is stable


def test_a_mixture_whose_weights_sum_to_one_only_pairwise_round_trips():
    # numpy sums 9 or more weights pairwise and Python's sum() adds them in turn; a search finds weights whose
    # pairwise sum is within 1e-9 of 1 and whose sequential sum is not, so a reader that re-sums them rejects its own output
    for seed in range(1000):
        w = np.random.default_rng(seed).random(9) + 0.5
        weights = (w / w.sum() * (1 + 1e-9)).tolist()
        if abs(np.add.reduceat(weights, [0])[0] - 1.0) <= 1e-9 < abs(sum(weights) - 1.0):
            break
    else:
        pytest.fail("no seed gave weights whose pairwise and sequential sums fall on either side of the tolerance")
    spec = ScenarioSpec("pairwise", kind=[3], atoms=[9], atom_x=np.arange(9.0), atom_y=-np.arange(9.0), weight=weights)
    assert loads_scenario(dumps_scenario(spec)) == spec


def test_parse_errors_carry_field_context():
    base = scenario_to_dict(build_scenario("uniform_square", 2))
    base["per_point"][1] = {"kind": "warp_field", "x": 1}
    with pytest.raises(ScenarioError, match=r"per_point\[1\].*warp_field"):
        scenario_from_dict(base)

    missing = scenario_to_dict(build_scenario("uniform_square", 2))
    del missing["per_point"][0]["x1"]
    with pytest.raises(ScenarioError, match=r"per_point\[0\].*x1"):
        scenario_from_dict(missing)

    bad_weights = {
        "name": "w",
        "n": 1,
        "per_point": [
            {
                "kind": "finite_mixture",
                "atoms": [{"x": 0, "y": 0, "weight": 0.2}, {"x": 1, "y": 1, "weight": 0.2}],
            }
        ],
    }
    with pytest.raises(ScenarioError, match=r"per_point\[0\]"):
        scenario_from_dict(bad_weights)

    with pytest.raises(ScenarioError, match="declares"):
        scenario_from_dict({"name": "m", "n": 5, "per_point": [{"kind": "point_mass", "x": 0, "y": 0}]})
    with pytest.raises(ScenarioError, match=r"scenario\.kind: must be nonempty"):
        scenario_from_dict({"name": "m", "n": 0, "per_point": []})
    with pytest.raises(ScenarioError, match=r"per_point\[1\]: expected an object, got list"):
        scenario_from_dict({"name": "m", "n": 2, "per_point": [_mass(0, 0), [1.0, 1.0]]})

    # coordinates, weights and n must be JSON numbers, not strings or booleans
    mass = {"kind": "point_mass", "x": 0, "y": 0}
    for bad, message in (
        ({**mass, "x": "1.5"}, r"per_point\[0\]\.x: expected a number"),
        ({**mass, "y": True}, r"per_point\[0\]\.y: expected a number"),
        ({"kind": "finite_mixture", "atoms": [{"x": 0, "y": 0, "weight": "1"}]}, r"per_point\[0\]\.atoms\[0\]\.weight: expected a number"),
    ):
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict({"name": "m", "n": 1, "per_point": [bad]})
    with pytest.raises(ScenarioError, match=r"scenario\.n: expected an integer"):
        scenario_from_dict({"name": "m", "n": 1.0, "per_point": [mass]})

    with pytest.raises(ScenarioError, match="JSON"):
        loads_scenario("{not json")
    with pytest.raises(ScenarioError, match="nested too deeply"):  # json's decoder recurses once per level
        loads_scenario("[" * 200_000)


def test_load_scenario_file_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff" + json.dumps(scenario_to_dict(build_scenario("uniform_square", 4))).encode())
    with pytest.raises(ScenarioError, match="scenario file is not valid UTF-8: .* byte 0xff in position 0"):
        distributions.load_scenario_file(path)


def test_parse_names_an_integer_too_large_for_a_float():
    # JSON integers have no size limit; float() of one past 1.8e308 raises OverflowError, which the reader names
    mass = {"kind": "point_mass", "x": 0, "y": 0}
    for bad, message in (
        ({**mass, "x": 10**400}, r"per_point\[0\]\.x: an integer too large for a float"),
        ({"kind": "finite_mixture", "atoms": [{"x": 0, "y": 0, "weight": -(10**400)}]}, r"per_point\[0\]\.atoms\[0\]\.weight: an integer too large"),
    ):
        with pytest.raises(ScenarioError, match=message):
            loads_scenario(json.dumps({"name": "m", "n": 1, "per_point": [bad]}))


def test_scenario_dict_is_json_clean():
    spec = build_scenario("two_level", 4)
    obj = scenario_to_dict(spec)
    json.dumps(obj)  # must not raise
    assert obj["n"] == 4
    assert obj["per_point"][0]["kind"] == "finite_mixture"


_PAIR = (((0.0, 1.0), (1.0, 0.0)), (0.25, 0.75))


@pytest.mark.parametrize(
    "per_point, message",
    [
        ([_mass(0.0, 1.0), _rect(0, 1, 0, 1), _mass(float("nan"), 0.0)], r"^per_point\[2\]\.x: must be finite, got nan$"),
        ([_rect(0, 1, 0, 1), _mass(0, 0), _rect(0, 1, 0, float("inf"))], r"^per_point\[2\]\.y1: must be finite, got inf$"),
        ([_segment(0, 0, 1, 1), _segment(float("nan"), 0, 1, 1)], r"^per_point\[1\]\.ax: must be finite, got nan$"),
        ([_rect(0, 1, 0, 1), _segment(0, 0, 1, 1), _rect(2.0, 1.0, 0, 1)], r"^per_point\[2\]\.x0: a uniform_rect's extents must satisfy x0 <= x1, got 2\.0$"),
        ([_mixture(*_PAIR), _mass(0, 0), _mixture(((0, 0), (1, 1), (2, 2)), (0.5, 0.0, 0.5))], r"^per_point\[2\]\.atoms\[1\]\.weight: must be positive, got 0\.0$"),
        ([_mixture(*_PAIR), _mixture(*_PAIR), _mixture(((0, 0), (1, 1)), (0.5, 0.6))], r"^per_point\[2\]\.atoms: the mixture at position 2 sums to 1\.1, expected 1 within 1e-9$"),
        ([_mixture(*_PAIR), {"kind": "finite_mixture", "atoms": []}], r"^per_point\[1\]\.atoms: a mixture needs at least one atom, got 0$"),
    ],
    ids=["NaN in a second point mass", "Infinity in a rectangle", "NaN in a segment", "x0 > x1", "weight 0", "weights sum to 1.1", "no atoms"],
)
def test_file_errors_name_the_position(per_point, message):
    # json.dumps writes NaN and Infinity literals, which json.loads reads back as floats for ScenarioSpec to reject
    with pytest.raises(ScenarioError, match=message):
        loads_scenario(json.dumps({"name": "bad", "n": len(per_point), "per_point": per_point}))


def _second(point, **top) -> dict:
    """A two-position scenario document: a point mass, then `point`, and any extra top-level fields."""
    return {"name": "u", "n": 2, "per_point": [_mass(0, 0), point], **top}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_second({**_mass(1, 0), "z": 5}), r"^per_point\[1\]: unknown field 'z'$"),
        (_second({**_rect(0, 1, 0, 1), "ax": 0}), r"^per_point\[1\]: unknown field 'ax'$"),
        (_second({**_mixture(*_PAIR), "weights": [0.25, 0.75]}), r"^per_point\[1\]: unknown field 'weights'$"),
        (_second({**_mixture(*_PAIR), "extra": None}), r"^per_point\[1\]: unknown field 'extra'$"),
        (_second({"kind": "finite_mixture", "atoms": [{"x": 0, "y": 0, "weight": 1.0, "w": 1}]}), r"^per_point\[1\]\.atoms\[0\]: unknown field 'w'$"),
        (_second({"kind": "finite_mixture", "atoms": [{"x": 0, "weight": 1.0, "z": 0}]}), r"^per_point\[1\]\.atoms\[0\]: missing field 'y'$"),
        (_second(_mass(1, 0), descripton="x"), r"^scenario: unknown field 'descripton'$"),
    ],
    ids=["point mass z", "rect ax", "mixture weights list", "mixture extra", "atom extra", "atom missing before unknown", "top-level descripton"],
)
def test_unknown_fields_are_rejected(doc, message):
    with pytest.raises(ScenarioError, match=message):
        loads_scenario(json.dumps(doc))
