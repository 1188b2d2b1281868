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
from typing import Union

import numpy as np

from .geometry import InputSet


class ScenarioError(ValueError):
    """Invalid scenario structure or parameters (message carries field context)."""


def _require_finite(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PointMass:
    """Always produces the single point (x, y)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _require_finite(self.x, "point_mass.x"))
        object.__setattr__(self, "y", _require_finite(self.y, "point_mass.y"))


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
                _require_finite(a[0], f"finite_mixture.atoms[{k}].x"),
                _require_finite(a[1], f"finite_mixture.atoms[{k}].y"),
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
class UniformRect:
    """Uniform over the axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), f"uniform_rect.{name}"))
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ScenarioError("uniform_rect: extents must satisfy x0 <= x1 and y0 <= y1")


@dataclass(frozen=True)
class UniformSegment:
    """Uniform over the segment from (ax, ay) to (bx, by)."""

    ax: float
    ay: float
    bx: float
    by: float

    def __post_init__(self):
        for name in ("ax", "ay", "bx", "by"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), f"uniform_segment.{name}"))


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

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size=size)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"


# ---------------------------------------------------------------------------
# sampling

# Draw budget per variant.  One uniform batch is drawn per input and consumed
# in point order, so samples depend only on (scenario, stream state).
_DRAWS = {PointMass: 0, FiniteMixture: 1, UniformRect: 2, UniformSegment: 1}


class _CompiledSampler:
    """Vectorized sampling plan for one scenario (grouped by variant)."""

    def __init__(self, spec: ScenarioSpec):
        self.n = spec.n
        offsets = []
        total = 0
        for dist in spec.per_point:
            offsets.append(total)
            total += _DRAWS[type(dist)]
        self.total_draws = total

        by_kind: dict[type, list[int]] = {PointMass: [], FiniteMixture: [], UniformRect: [], UniformSegment: []}
        for i, dist in enumerate(spec.per_point):
            by_kind[type(dist)].append(i)

        mass_idx = by_kind[PointMass]
        self.mass_idx = np.array(mass_idx, dtype=np.intp)
        self.mass_x = np.array([spec.per_point[i].x for i in mass_idx])
        self.mass_y = np.array([spec.per_point[i].y for i in mass_idx])

        rect_idx = by_kind[UniformRect]
        self.rect_idx = np.array(rect_idx, dtype=np.intp)
        self.rect_off = np.array([offsets[i] for i in rect_idx], dtype=np.intp)
        self.rect_x0 = np.array([spec.per_point[i].x0 for i in rect_idx])
        self.rect_dx = np.array([spec.per_point[i].x1 - spec.per_point[i].x0 for i in rect_idx])
        self.rect_y0 = np.array([spec.per_point[i].y0 for i in rect_idx])
        self.rect_dy = np.array([spec.per_point[i].y1 - spec.per_point[i].y0 for i in rect_idx])

        seg_idx = by_kind[UniformSegment]
        self.seg_idx = np.array(seg_idx, dtype=np.intp)
        self.seg_off = np.array([offsets[i] for i in seg_idx], dtype=np.intp)
        self.seg_ax = np.array([spec.per_point[i].ax for i in seg_idx])
        self.seg_dx = np.array([spec.per_point[i].bx - spec.per_point[i].ax for i in seg_idx])
        self.seg_ay = np.array([spec.per_point[i].ay for i in seg_idx])
        self.seg_dy = np.array([spec.per_point[i].by - spec.per_point[i].ay for i in seg_idx])

        mix_idx = by_kind[FiniteMixture]
        self.mix_idx = np.array(mix_idx, dtype=np.intp)
        self.mix_off = np.array([offsets[i] for i in mix_idx], dtype=np.intp)
        if mix_idx:
            width = max(len(spec.per_point[i].atoms) for i in mix_idx)
            # cumulative weights padded with 1.0: padding cells are unreachable
            # because draws are < 1 and the last real cell is clamped to 1.0
            cw = np.ones((len(mix_idx), width))
            ax = np.zeros((len(mix_idx), width))
            ay = np.zeros((len(mix_idx), width))
            for r, i in enumerate(mix_idx):
                dist = spec.per_point[i]
                w = np.array(dist.weights)
                c = np.cumsum(w / w.sum())
                c[-1] = 1.0
                m = len(dist.atoms)
                cw[r, :m] = c
                ax[r, :m] = [a[0] for a in dist.atoms]
                ay[r, :m] = [a[1] for a in dist.atoms]
            self.mix_cw = cw
            self.mix_ax = ax
            self.mix_ay = ay

    def sample(self, rng: SeededRng) -> InputSet:
        u = rng.random(self.total_draws)
        xs = np.empty(self.n)
        ys = np.empty(self.n)
        if self.mass_idx.size:
            xs[self.mass_idx] = self.mass_x
            ys[self.mass_idx] = self.mass_y
        if self.rect_idx.size:
            xs[self.rect_idx] = self.rect_x0 + self.rect_dx * u[self.rect_off]
            ys[self.rect_idx] = self.rect_y0 + self.rect_dy * u[self.rect_off + 1]
        if self.seg_idx.size:
            t = u[self.seg_off]
            xs[self.seg_idx] = self.seg_ax + self.seg_dx * t
            ys[self.seg_idx] = self.seg_ay + self.seg_dy * t
        if self.mix_idx.size:
            um = u[self.mix_off]
            sel = (self.mix_cw <= um[:, None]).sum(axis=1)
            rows = np.arange(self.mix_idx.size)
            xs[self.mix_idx] = self.mix_ax[rows, sel]
            ys[self.mix_idx] = self.mix_ay[rows, sel]
        return InputSet(xs, ys)


def sample_input(spec: ScenarioSpec, rng: SeededRng) -> InputSet:
    """Draw one input set from the scenario, advancing the stream."""
    return spec._sampler.sample(rng)


# ---------------------------------------------------------------------------
# built-in scenarios


def build_scenario(kind: str, n: int, params: dict | None = None) -> ScenarioSpec:
    """Construct a built-in scenario family instance.

    Kinds:
      uniform_square   n iid uniform points on [0,1]^2
      staircase_line   n/2 fixed staircase points plus n/2 points uniform on a
                       segment strictly below the staircase; the maxima are
                       always exactly the staircase
      two_level        every position is a 2-atom high/low mixture; the highs
                       form a staircase above everything, so each low pick's
                       maximality depends on all the other picks
      custom           params["per_point"] provides the distributions
    """
    params = dict(params or {})
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
        p_high = float(params.pop("p_high", 0.5))
        if not 0 < p_high < 1:
            raise ScenarioError(f"two_level.p_high: must be in (0,1), got {p_high}")
        dists = []
        for i in range(n):
            t = (i + 1) / (n + 1)
            high = (1.0 + t, 2.0 - t)
            low = (t, 1.0 - t)
            dists.append(FiniteMixture(atoms=(high, low), weights=(p_high, 1.0 - p_high)))
        return ScenarioSpec("two_level", tuple(dists))
    if kind == "custom":
        per_point = params.get("per_point")
        if not per_point:
            raise ScenarioError("custom: params['per_point'] is required")
        dists = tuple(d if not isinstance(d, dict) else _dist_from_dict(d, f"per_point[{i}]") for i, d in enumerate(per_point))
        if len(dists) != n:
            raise ScenarioError(f"custom: per_point has {len(dists)} entries, expected n={n}")
        return ScenarioSpec(str(params.get("name", "custom")), dists)
    raise ScenarioError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON round-trip


def _dist_to_dict(dist: PointDistribution) -> dict:
    if isinstance(dist, PointMass):
        return {"kind": "point_mass", "x": dist.x, "y": dist.y}
    if isinstance(dist, FiniteMixture):
        return {
            "kind": "finite_mixture",
            "atoms": [{"x": a[0], "y": a[1], "weight": w} for a, w in zip(dist.atoms, dist.weights)],
        }
    if isinstance(dist, UniformRect):
        return {"kind": "uniform_rect", "x0": dist.x0, "x1": dist.x1, "y0": dist.y0, "y1": dist.y1}
    if isinstance(dist, UniformSegment):
        return {"kind": "uniform_segment", "ax": dist.ax, "ay": dist.ay, "bx": dist.bx, "by": dist.by}
    raise TypeError(f"not a PointDistribution: {dist!r}")


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where}: missing field {key!r}")
    return obj[key]


def _dist_from_dict(obj, where: str) -> PointDistribution:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _get(obj, "kind", where)
    try:
        if kind == "point_mass":
            return PointMass(_get(obj, "x", where), _get(obj, "y", where))
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
                atoms.append((_get(a, "x", aw), _get(a, "y", aw)))
                weights.append(_get(a, "weight", aw))
            return FiniteMixture(atoms=tuple(atoms), weights=tuple(weights))
        if kind == "uniform_rect":
            return UniformRect(*(_get(obj, f, where) for f in ("x0", "x1", "y0", "y1")))
        if kind == "uniform_segment":
            return UniformSegment(*(_get(obj, f, where) for f in ("ax", "ay", "bx", "by")))
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
    return scenario_from_dict(obj)


def load_scenario_file(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scenario(fh.read())
