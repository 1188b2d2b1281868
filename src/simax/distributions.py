"""Product distributions over point sequences and reproducible sampling.

A scenario assigns an independent distribution to each of the n input
positions; an input set is one draw from the product.  A ScenarioSpec holds
the n distributions as numpy columns, one group per sampling formula, and a
model file stores those columns as they are.  The per-point dataclasses are
a view of a spec, and scenario JSON lists them one object per position.
Specs are sampled with a named PCG64 stream so every experiment is
replayable from (scenario, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar, Union

import numpy as np

from .geometry import InputSet


class ScenarioError(ValueError):
    """Invalid scenario structure or parameters (message carries field context)."""


def _require_finite(value: float, where: str, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"{where}.{name}: must be finite, got {value!r}")
    return value


class _FiniteFields:
    """Base of the kinds whose fields are all finite coordinates (converted to float)."""

    kind: ClassVar[str]  # the kind's name in scenario JSON

    def __post_init__(self):
        kind = self.kind
        for name in self.__match_args__:  # the dataclass's field names, in order
            object.__setattr__(self, name, _require_finite(getattr(self, name), kind, name))


@dataclass(frozen=True)
class PointMass(_FiniteFields):
    """Always produces the single point (x, y)."""

    kind = "point_mass"
    x: float
    y: float


@dataclass(frozen=True)
class FiniteMixture:
    """Picks one of finitely many atoms with the given probabilities."""

    kind = "finite_mixture"
    atoms: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ScenarioError("finite_mixture.atoms: must be nonempty")
        if len(self.atoms) != len(self.weights):
            raise ScenarioError("finite_mixture: atoms and weights differ in length")
        atoms = tuple(
            (
                _require_finite(a[0], f"finite_mixture.atoms[{k}]", "x"),
                _require_finite(a[1], f"finite_mixture.atoms[{k}]", "y"),
            )
            for k, a in enumerate(self.atoms)
        )
        weights = tuple(float(w) for w in self.weights)
        for k, w in enumerate(weights):
            if not (math.isfinite(w) and w > 0):
                raise ScenarioError(f"finite_mixture.weights[{k}]: must be positive, got {w!r}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ScenarioError(f"finite_mixture.weights: sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class UniformRect(_FiniteFields):
    """Uniform over the axis-aligned rectangle [x0, x1] x [y0, y1]."""

    kind = "uniform_rect"
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        _FiniteFields.__post_init__(self)
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ScenarioError("uniform_rect: extents must satisfy x0 <= x1 and y0 <= y1")


@dataclass(frozen=True)
class UniformSegment(_FiniteFields):
    """Uniform over the segment from (ax, ay) to (bx, by)."""

    kind = "uniform_segment"
    ax: float
    ay: float
    bx: float
    by: float


PointDistribution = Union[PointMass, FiniteMixture, UniformRect, UniformSegment]

KINDS = (PointMass, UniformRect, UniformSegment, FiniteMixture)  # a position's kind code indexes this
_MASS, _RECT, _SEGMENT, _MIXTURE = range(len(KINDS))

# a spec's columns and their dtypes in a model file; within each group, entries follow position order
SCENARIO_COLUMNS = {
    "kind": "<u1",  # one kind code per position
    **dict.fromkeys(("mass_x", "mass_y"), "<f8"),  # one per point mass
    **dict.fromkeys(("x0", "x1", "y0", "y1"), "<f8"),  # one per rectangle or segment
    "atoms": "<u4",  # one atom count per mixture
    **dict.fromkeys(("atom_x", "atom_y", "weight"), "<f8"),  # one per atom, mixture after mixture; weights as given
}
# the columns of the other kinds' dataclass fields, by kind code and in field order
_FIELDS = ({"mass_x": "x", "mass_y": "y"}, {k: k for k in ("x0", "x1", "y0", "y1")}, {"x0": "ax", "y0": "ay", "x1": "bx", "y1": "by"})


def _as_column(values, name: str) -> np.ndarray:
    """A read-only int64 or float64 copy of a 1-d column, by SCENARIO_COLUMNS's dtype kind."""
    integer = SCENARIO_COLUMNS[name][1] == "u"
    a = np.asarray(values)
    if a.ndim != 1 or (a.size and a.dtype.kind not in ("iu" if integer else "iuf")):
        what = "integers" if integer else "numbers"
        raise ScenarioError(f"scenario.{name}: expected a 1-d column of {what}, got {a.dtype} of shape {a.shape}")
    a = a.astype(np.int64 if integer else np.float64)
    a.flags.writeable = False
    return a


def _check(name: str, ok: np.ndarray, values: np.ndarray, what: str) -> None:
    """Raise ScenarioError naming the column `name` and its first entry where ok is False."""
    if not ok.all():
        j = np.flatnonzero(~ok)[0]
        raise ScenarioError(f"scenario.{name}[{j}]: {what}, got {values[j].item()!r}")


class ScenarioSpec:
    """A named product distribution over n positions, held as the columns its sampler reads.

    columns["kind"] gives each position's kind code (an index into KINDS),
    and the parameters sit in one group of columns per formula (see
    SCENARIO_COLUMNS); a column left out is empty.  Construction checks every
    column, raising ScenarioError naming it, and derives the sampling plan
    with numpy alone.  One uniform batch is drawn per input and consumed in
    position order (a rectangle takes two, a segment or a mixture one, a
    point mass none), so samples depend only on (scenario, stream state).
    Rectangles and segments share x = x0 + (x1 - x0)*u[ux], y = y0 +
    (y1 - y0)*u[uy], where a segment has uy == ux.  Point masses are copied,
    so a -0.0 stays -0.0.  A mixture picks atom k, the number of its
    cumulative weights <= u: mixtures with the same atom count share one
    (count, mixtures) table, so the count is a sum down a column and the
    tables hold one cell per atom.  Specs are equal when their names and
    column bytes are, so -0.0 differs from 0.0.
    """

    def __init__(self, name: str, **columns):
        if not isinstance(name, str):
            raise ScenarioError(f"scenario.name: expected a string, got {name!r}")
        unknown = sorted(set(columns) - set(SCENARIO_COLUMNS))
        if unknown:
            raise ScenarioError(f"scenario: unknown columns {unknown}")
        self.name = name
        self.columns = c = MappingProxyType({k: _as_column(columns.get(k, ()), k) for k in SCENARIO_COLUMNS})
        kind, atoms, weight = c["kind"], c["atoms"], c["weight"]
        if not kind.size:
            raise ScenarioError("scenario.kind: must be nonempty")
        _check("kind", (kind >= 0) & (kind < len(KINDS)), kind, "not a kind code")
        per_kind = np.bincount(kind, minlength=len(KINDS))
        need = dict.fromkeys(("mass_x", "mass_y"), per_kind[_MASS])
        need |= dict.fromkeys(("x0", "x1", "y0", "y1"), per_kind[_RECT] + per_kind[_SEGMENT])
        need |= {"atoms": per_kind[_MIXTURE]} | dict.fromkeys(("atom_x", "atom_y", "weight"), atoms.sum())
        for k, size in need.items():  # the atom counts meet the atom columns' length before anything is built from them
            if c[k].size != size:
                raise ScenarioError(f"scenario.{k}: has {c[k].size} entries, expected {size}")
        for k, col in c.items():
            if col.dtype == np.float64:
                _check(k, np.isfinite(col), col, "must be finite")
        _check("atoms", atoms >= 1, atoms, "a mixture needs at least one atom")
        _check("weight", weight > 0, weight, "must be positive")
        affine = np.flatnonzero((kind == _RECT) | (kind == _SEGMENT))
        rect = kind[affine] == _RECT
        for lo, hi in (("x0", "x1"), ("y0", "y1")):
            _check(lo, ~rect | (c[lo] <= c[hi]), c[lo], f"a uniform_rect's extents must satisfy {lo} <= {hi}")
        mix, start = np.flatnonzero(kind == _MIXTURE), np.cumsum(atoms) - atoms
        sums = np.add.reduceat(weight, start)  # in order, as FiniteMixture adds them
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
        if bad.size:
            j = bad[0]
            raise ScenarioError(f"scenario.weight: the mixture at position {mix[j]} sums to {sums[j].item()!r}, expected 1 within 1e-9")
        # the sampling plan
        draws = np.array([0, 2, 1, 1])[kind]  # uniforms per input, by kind code
        first = np.cumsum(draws) - draws  # each position's first uniform
        self._draws = int(draws.sum())
        self._mass = np.flatnonzero(kind == _MASS)
        ux = first[affine]
        uy = ux + rect if rect.any() else ux  # segments only: a draw gathers their uniforms once
        self._affine = (affine, ux, uy, c["x0"], c["x1"] - c["x0"], c["y0"], c["y1"] - c["y0"])
        self._mixtures = []
        for count in np.unique(atoms).tolist():
            r = np.flatnonzero(atoms == count)
            cells = start[r, None] + np.arange(count)  # (mixtures, count): each row one mixture's atoms
            w = weight[cells]
            cw = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)  # a row sum is a 1-d sum of its weights
            cw[:, -1] = 1.0  # draws are < 1, so the last atom takes any rounding shortfall
            base = np.arange(r.size) * count
            x, y = c["atom_x"][cells].ravel(), c["atom_y"][cells].ravel()
            self._mixtures.append((mix[r], first[mix[r]], np.ascontiguousarray(cw.T), x, y, base))

    @classmethod
    def from_points(cls, name: str, per_point) -> "ScenarioSpec":
        """The spec of a sequence of per-point distributions (instances of KINDS)."""
        columns = {k: [] for k in SCENARIO_COLUMNS}
        for i, d in enumerate(per_point):
            if type(d) not in KINDS:
                raise ScenarioError(f"per_point[{i}]: not a point distribution: {d!r}")
            code = KINDS.index(type(d))
            columns["kind"].append(code)
            if code == _MIXTURE:
                columns["atoms"].append(len(d.atoms))
                columns["atom_x"] += [a[0] for a in d.atoms]
                columns["atom_y"] += [a[1] for a in d.atoms]
                columns["weight"] += d.weights
            else:
                for k, field in _FIELDS[code].items():
                    columns[k].append(getattr(d, field))
        return cls(name, **columns)

    @property
    def per_point(self) -> tuple[PointDistribution, ...]:
        """The n per-point dataclasses, built on each call from scenario_to_dict (sampling does not use them)."""
        return tuple(_dist_from_dict(d, f"per_point[{i}]") for i, d in enumerate(scenario_to_dict(self)["per_point"]))

    @property
    def n(self) -> int:
        return self.columns["kind"].size

    def __eq__(self, other):
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.name == other.name and all(v.tobytes() == other.columns[k].tobytes() for k, v in self.columns.items())

    def __hash__(self):
        return hash((self.name, self.n))

    def __repr__(self) -> str:
        return f"ScenarioSpec(name={self.name!r}, n={self.n})"


class SeededRng:
    """Deterministic random stream: PCG64 keyed by a 64-bit seed."""

    algorithm = "pcg64"

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def random(self, size=None):
        return self.generator.random(size)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"


def sample_input(spec: ScenarioSpec, rng: SeededRng) -> InputSet:
    """Draw one input set from the scenario, advancing the stream (see ScenarioSpec for the formulas)."""
    u = rng.random(spec._draws)
    xs = np.empty(spec.n)
    ys = np.empty(spec.n)
    xs[spec._mass] = spec.columns["mass_x"]
    ys[spec._mass] = spec.columns["mass_y"]
    idx, ux, uy, x0, dx, y0, dy = spec._affine
    if idx.size:
        vx = u[ux]
        xs[idx] = x0 + dx * vx
        ys[idx] = y0 + dy * (vx if uy is ux else u[uy])
    for idx, ui, cw, ax, ay, base in spec._mixtures:
        atom = base + (cw <= u[ui]).sum(axis=0)
        xs[idx] = ax[atom]
        ys[idx] = ay[atom]
    return InputSet(xs, ys)


# ---------------------------------------------------------------------------
# built-in scenarios


BUILTIN_SCENARIOS = ("uniform_square", "staircase_line", "two_level")


def build_scenario(kind: str, n: int) -> ScenarioSpec:
    """Construct the built-in scenario `kind` with n positions, column by column.

    Kinds (BUILTIN_SCENARIOS):
      uniform_square   n iid uniform points on [0,1]^2
      staircase_line   n/2 fixed staircase points plus n/2 points uniform on a
                       segment strictly below the staircase; the maxima are
                       always exactly the staircase
      two_level        every position is a 2-atom high/low mixture (1/2 each);
                       the highs form a staircase above everything, so each
                       low pick's maximality depends on all the other picks

    Any other product distribution is a ScenarioSpec built directly or read
    from scenario JSON (loads_scenario, load_scenario_file).
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ScenarioError(f"n: expected an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise ScenarioError(f"n: must be >= 2, got {n}")
    if kind == "uniform_square":
        zeros, ones = np.zeros(n), np.ones(n)
        return ScenarioSpec("uniform_square", kind=np.full(n, _RECT), x0=zeros, x1=ones, y0=zeros, y1=ones)
    if kind not in ("staircase_line", "two_level"):
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    if n % 2:
        raise ScenarioError(f"{kind}: n must be even, got {n}")
    half = n // 2
    if kind == "staircase_line":
        return ScenarioSpec(
            "staircase_line",
            kind=np.repeat([_MASS, _SEGMENT], half),
            mass_x=np.arange(1.0, half + 1),
            mass_y=np.arange(float(half), 0, -1),
            x0=np.full(half, 0.5),
            x1=np.full(half, half - 0.5),
            y0=np.full(half, 0.75),
            y1=np.full(half, 0.25),
        )
    t = np.arange(1, n + 1) / (n + 1)  # (i + 1) / (n + 1), correctly rounded
    return ScenarioSpec(
        "two_level",
        kind=np.full(n, _MIXTURE),
        atoms=np.full(n, 2),
        atom_x=np.column_stack((1.0 + t, t)).ravel(),  # high atom, then low atom
        atom_y=np.column_stack((2.0 - t, 1.0 - t)).ravel(),
        weight=np.full(2 * n, 0.5),
    )


# ---------------------------------------------------------------------------
# JSON round-trip: one object per position (the only per-point reader)

# the kinds written as their dataclass fields, in field order
_SIMPLE_KINDS = {cls.kind: cls for cls in (PointMass, UniformRect, UniformSegment)}


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where}: missing field {key!r}")
    return obj[key]


def _number(obj: dict, key: str, where: str) -> float:
    value = obj.get(key)
    if type(value) not in (int, float):  # JSON numbers; a bool is not one
        _get(obj, key, where)  # a missing field is reported as missing
        raise ScenarioError(f"{where}.{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{where}.{key}: an integer too large for a float") from None


def _dist_from_dict(obj, where: str) -> PointDistribution:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _get(obj, "kind", where)
    try:
        if kind == "finite_mixture":
            atoms_raw = _get(obj, "atoms", where)
            if not isinstance(atoms_raw, list) or not atoms_raw:
                raise ScenarioError(f"{where}.atoms: expected a nonempty list")
            atoms = []
            weights = []
            for k, a in enumerate(atoms_raw):
                aw = f"{where}.atoms[{k}]"
                if not isinstance(a, dict):
                    raise ScenarioError(f"{aw}: expected an object")
                atoms.append((_number(a, "x", aw), _number(a, "y", aw)))
                weights.append(_number(a, "weight", aw))
            return FiniteMixture(atoms=tuple(atoms), weights=tuple(weights))
        if isinstance(kind, str) and kind in _SIMPLE_KINDS:
            cls = _SIMPLE_KINDS[kind]
            return cls(*[_number(obj, name, where) for name in cls.__match_args__])
    except ScenarioError as e:
        # prepend position context when the variant validator raised bare
        if str(e).startswith(where):
            raise
        raise ScenarioError(f"{where}: {e}") from None
    raise ScenarioError(f"{where}.kind: unknown variant {kind!r}")


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """The per-point JSON form: one object per position, its kind and then its dataclass fields in order."""
    c = {k: iter(v.tolist()) for k, v in spec.columns.items()}
    per_point = []
    for code in spec.columns["kind"].tolist():
        if code == _MIXTURE:
            atoms = [{"x": next(c["atom_x"]), "y": next(c["atom_y"]), "weight": next(c["weight"])} for _ in range(next(c["atoms"]))]
            per_point.append({"kind": "finite_mixture", "atoms": atoms})
        else:
            per_point.append({"kind": KINDS[code].kind, **{field: next(c[k]) for k, field in _FIELDS[code].items()}})
    return {"name": spec.name, "n": spec.n, "per_point": per_point}


def scenario_from_dict(obj) -> ScenarioSpec:
    """Parse scenario JSON's per-point form, then check it as columns like a model file's scenario."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"scenario: expected an object, got {type(obj).__name__}")
    name = _get(obj, "name", "scenario")  # ScenarioSpec checks it is a string
    per_raw = _get(obj, "per_point", "scenario")
    if not isinstance(per_raw, list) or not per_raw:
        raise ScenarioError("scenario.per_point: expected a nonempty list")
    spec = ScenarioSpec.from_points(name, [_dist_from_dict(d, f"per_point[{i}]") for i, d in enumerate(per_raw)])
    declared_n = _get(obj, "n", "scenario")
    if type(declared_n) is not int:
        raise ScenarioError(f"scenario.n: expected an integer, got {declared_n!r}")
    if declared_n != spec.n:
        raise ScenarioError(f"scenario.n: declares {declared_n} but per_point has {spec.n} entries")
    return spec


def dumps_scenario(spec: ScenarioSpec) -> str:
    return json.dumps(scenario_to_dict(spec), indent=2) + "\n"


def loads_scenario(text: str) -> ScenarioSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario JSON: {e}") from None
    except RecursionError:
        raise ScenarioError("scenario JSON is nested too deeply to be read") from None
    return scenario_from_dict(obj)


def load_scenario_file(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scenario(fh.read())
