"""
Input scenarios: fixed distributions you can sample forever
===========================================================

Training assumes each coordinate pair is drawn, independently per input
position, from a fixed per-position distribution.  A ScenarioSpec holds
those n distributions as columns; it is built from the columns or from JSON
with one object per position, sampled with any seed, serialized to JSON and
reloaded bit-for-bit.
"""

import numpy as np

from simax import (
    ScenarioSpec,
    SeededRng,
    brute_force_maxima,
    build_scenario,
    dumps_scenario,
    loads_scenario,
    sample_input,
)

# ---------------------------------------------------------------------------
# the three built-in families

n = 12
for kind in ("uniform_square", "staircase_line", "two_level"):
    spec = build_scenario(kind, n)
    inp = sample_input(spec, SeededRng(7))
    m = brute_force_maxima(inp).maxima
    print(f"{kind:16s} n={spec.n:3d}  maxima on one draw: {len(m)}")

# uniform_square spreads points over the unit square, so a modest staircase;
# staircase_line keeps half the points on a fixed staircase, so most survive;
# two_level hides most points behind a few dominators.

# ---------------------------------------------------------------------------
# per-position structure: the same index always draws from the same cell

spec = build_scenario("two_level", 16)
draws = [sample_input(spec, SeededRng(s)).point(3).x for s in range(6)]
print("position 3 x-draws across seeds:", np.round(draws, 3))

# ---------------------------------------------------------------------------
# JSON round trip

text = dumps_scenario(spec)
print("serialized bytes:", len(text))
back = loads_scenario(text)

same = sample_input(spec, SeededRng(42))
other = sample_input(back, SeededRng(42))
assert np.array_equal(same.xs, other.xs) and np.array_equal(same.ys, other.ys)
print("reloaded scenario reproduces the same samples")

# ---------------------------------------------------------------------------
# a hand-written scenario: one JSON object per position, or the same columns

text = """{"name": "mixed", "n": 4, "per_point": [
  {"kind": "point_mass", "x": 3.0, "y": 0.5},
  {"kind": "uniform_rect", "x0": 0.0, "x1": 1.0, "y0": 0.0, "y1": 2.0},
  {"kind": "uniform_segment", "ax": 0.0, "ay": 1.0, "bx": 2.0, "by": 0.0},
  {"kind": "finite_mixture", "atoms": [{"x": 0.5, "y": 3.0, "weight": 0.25},
                                       {"x": 2.5, "y": 1.0, "weight": 0.75}]}]}"""
by_columns = ScenarioSpec(
    "mixed",
    kind=[0, 1, 2, 3],  # an index into distributions.KINDS per position
    mass_x=[3.0], mass_y=[0.5],  # the point mass
    x0=[0.0, 0.0], x1=[1.0, 2.0], y0=[0.0, 1.0], y1=[2.0, 0.0],  # the rectangle, then the segment: x0, x1, y0, y1 hold its ax, bx, ay, by
    atoms=[2], atom_x=[0.5, 2.5], atom_y=[3.0, 1.0], weight=[0.25, 0.75],  # the mixture's atoms
)
assert loads_scenario(text) == by_columns
print("hand-written JSON and hand-built columns give the same scenario")

# sampling is deterministic in the seed and independent across seeds
a = sample_input(spec, SeededRng(5))
b = sample_input(spec, SeededRng(5))
c = sample_input(spec, SeededRng(6))
assert np.array_equal(a.xs, b.xs)
assert not np.array_equal(a.xs, c.xs)
print("same seed -> same instance, new seed -> fresh instance")
