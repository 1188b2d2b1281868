"""Product distributions over point sequences and reproducible sampling.

A scenario assigns an independent distribution to each of the n input
positions; an input set is one draw from the product.  Scenarios are plain
frozen dataclasses, round-trip through JSON, and are sampled with a named
PCG64 stream so every experiment is replayable from (scenario, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Union, get_args

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


@dataclass(frozen=True)
class ScenarioSpec:
    """A named product distribution: one PointDistribution per input position."""

    name: str
    per_point: tuple[PointDistribution, ...]

    def __post_init__(self):
        if not self.per_point:
            raise ScenarioError("per_point: must be nonempty")
        object.__setattr__(self, "per_point", tuple(self.per_point))
        kinds = set(get_args(PointDistribution))
        if not {type(d) for d in self.per_point} <= kinds:
            i = next(i for i, d in enumerate(self.per_point) if type(d) not in kinds)
            raise ScenarioError(f"per_point[{i}]: not a point distribution: {self.per_point[i]!r}")

    @property
    def n(self) -> int:
        return len(self.per_point)

    @cached_property
    def _sampler(self) -> _CompiledSampler:
        return _CompiledSampler(self)


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


# ---------------------------------------------------------------------------
# sampling


class _CompiledSampler:
    """Vectorized sampling plan for one scenario: one group of positions per formula.

    One uniform batch is drawn per input and consumed in point order (a
    rectangle takes two, a segment or a mixture one, a point mass none), so
    samples depend only on (scenario, stream state).  Rectangles and segments
    share x = x0 + dx*u[ux], y = y0 + dy*u[uy]; a segment has uy == ux.  Point
    masses are copied rather than computed, so a -0.0 coordinate stays -0.0.
    A mixture picks atom k, the number of its cumulative weights <= u: the
    weights sit one mixture per column of a (width, mixtures) table, so the
    count is a sum down the columns, and the atom is read through the flat
    offset r * width + k.  Each column is its own contiguous array, and empty
    groups are skipped.
    """

    def __init__(self, spec: ScenarioSpec):
        self.n = spec.n
        mass, affine, mix, mixtures = [], [], [], []
        u = 0  # index of the position's first uniform
        for i, d in enumerate(spec.per_point):
            if isinstance(d, PointMass):
                mass.append((i, d.x, d.y))
            elif isinstance(d, UniformRect):
                affine.append((i, u, u + 1, d.x0, d.x1, d.y0, d.y1))
                u += 2
            elif isinstance(d, UniformSegment):
                affine.append((i, u, u, d.ax, d.bx, d.ay, d.by))
                u += 1
            else:
                mix.append((i, u))
                mixtures.append(d)
                u += 1
        self.total_draws = u
        self.mass_idx, self.mass_x, self.mass_y = _columns(mass, 3)
        self.aff_idx, self.aff_ux, self.aff_uy, self.aff_x0, x1, self.aff_y0, y1 = _columns(affine, 7)
        self.aff_dx, self.aff_dy = x1 - self.aff_x0, y1 - self.aff_y0
        if np.array_equal(self.aff_ux, self.aff_uy):
            self.aff_uy = self.aff_ux  # segments only: sample gathers their uniforms once
        self.mix_idx, self.mix_u = _columns(mix, 2)
        if mixtures:
            width = max(len(d.atoms) for d in mixtures)
            # cumulative weights padded with 1.0, one column per mixture: padding
            # cells are unreachable because draws are < 1 and the last real cell
            # is clamped to 1.0
            self.mix_cw = np.ones((width, len(mixtures)))
            ax, ay = np.zeros((len(mixtures), width)), np.zeros((len(mixtures), width))
            for r, d in enumerate(mixtures):
                w = np.array(d.weights)
                c = np.cumsum(w / w.sum())
                c[-1] = 1.0
                m = len(d.atoms)
                self.mix_cw[:m, r] = c
                ax[r, :m], ay[r, :m] = zip(*d.atoms)
            self.mix_ax, self.mix_ay = ax.ravel(), ay.ravel()
            self.mix_start = np.arange(len(mixtures)) * width

    def sample(self, rng: SeededRng) -> InputSet:
        u = rng.random(self.total_draws)
        xs = np.empty(self.n)
        ys = np.empty(self.n)
        if self.mass_idx.size:
            xs[self.mass_idx] = self.mass_x
            ys[self.mass_idx] = self.mass_y
        if self.aff_idx.size:
            ux = u[self.aff_ux]
            uy = ux if self.aff_uy is self.aff_ux else u[self.aff_uy]
            xs[self.aff_idx] = self.aff_x0 + self.aff_dx * ux
            ys[self.aff_idx] = self.aff_y0 + self.aff_dy * uy
        if self.mix_idx.size:
            atom = self.mix_start + (self.mix_cw <= u[self.mix_u]).sum(axis=0)
            xs[self.mix_idx] = self.mix_ax[atom]
            ys[self.mix_idx] = self.mix_ay[atom]
        return InputSet(xs, ys)


def _columns(rows: list[tuple], width: int) -> list[np.ndarray]:
    """Transpose rows into one array per column: ints become intp, floats float64."""
    return [np.array(col) for col in zip(*rows)] if rows else [np.empty(0, dtype=np.intp)] * width


def sample_input(spec: ScenarioSpec, rng: SeededRng) -> InputSet:
    """Draw one input set from the scenario, advancing the stream."""
    return spec._sampler.sample(rng)


# ---------------------------------------------------------------------------
# built-in scenarios


BUILTIN_SCENARIOS = ("uniform_square", "staircase_line", "two_level")


def build_scenario(kind: str, n: int) -> ScenarioSpec:
    """Construct the built-in scenario `kind` with n positions.

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
    if n < 2:
        raise ScenarioError(f"n: must be >= 2, got {n}")
    if kind == "uniform_square":
        return ScenarioSpec("uniform_square", tuple(UniformRect(0.0, 1.0, 0.0, 1.0) for _ in range(n)))
    if kind == "staircase_line":
        if n % 2:
            raise ScenarioError(f"staircase_line: n must be even, got {n}")
        half = n // 2
        stairs = [PointMass(float(i + 1), float(half - i)) for i in range(half)]
        line = [UniformSegment(0.5, 0.75, half - 0.5, 0.25) for _ in range(half)]
        return ScenarioSpec("staircase_line", tuple(stairs + line))
    if kind == "two_level":
        if n % 2:
            raise ScenarioError(f"two_level: n must be even, got {n}")
        dists = []
        for i in range(n):
            t = (i + 1) / (n + 1)
            high = (1.0 + t, 2.0 - t)
            low = (t, 1.0 - t)
            dists.append(FiniteMixture(atoms=(high, low), weights=(0.5, 0.5)))
        return ScenarioSpec("two_level", tuple(dists))
    raise ScenarioError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON round-trip

# the kinds written as their dataclass fields, in field order
_SIMPLE_KINDS = {cls.kind: cls for cls in (PointMass, UniformRect, UniformSegment)}


def _dist_to_dict(dist: PointDistribution) -> dict:
    if isinstance(dist, FiniteMixture):
        return {
            "kind": "finite_mixture",
            "atoms": [{"x": a[0], "y": a[1], "weight": w} for a, w in zip(dist.atoms, dist.weights)],
        }
    obj = {"kind": dist.kind}
    for name in dist.__match_args__:
        obj[name] = getattr(dist, name)
    return obj


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
    return {"name": spec.name, "n": spec.n, "per_point": [_dist_to_dict(d) for d in spec.per_point]}


def scenario_from_dict(obj) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"scenario: expected an object, got {type(obj).__name__}")
    name = _get(obj, "name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError("scenario.name: expected a string")
    per_raw = _get(obj, "per_point", "scenario")
    if not isinstance(per_raw, list) or not per_raw:
        raise ScenarioError("scenario.per_point: expected a nonempty list")
    dists = tuple(_dist_from_dict(d, f"per_point[{i}]") for i, d in enumerate(per_raw))
    spec = ScenarioSpec(name=name, per_point=dists)
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
