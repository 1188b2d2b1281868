"""Product distributions over point sequences and reproducible sampling.

A scenario assigns an independent distribution to each of the n input
positions; an input set is one draw from the product.  A ScenarioSpec holds
the n distributions as numpy columns, one group per sampling formula, and
its constructor is the one place a scenario's values are checked.  An API
caller builds a spec from columns; scenario JSON lists one object per
position, and its reader appends each object's numbers to the columns.
A model file stores the columns as they are.  Specs are sampled with a
named PCG64 stream so every experiment is replayable from (scenario, seed).
"""

from __future__ import annotations

import json
from types import MappingProxyType

import numpy as np

from .geometry import InputSet


class ScenarioError(ValueError):
    """Invalid scenario structure or parameters (message carries field context).

    An error in one entry of a spec's column also names it in `column` and
    `entry`, so the JSON reader can say which position the entry came from.
    """

    def __init__(self, message: str, column: str | None = None, entry: int | None = None):
        super().__init__(message)
        self.column, self.entry = column, entry


KINDS = ("point_mass", "uniform_rect", "uniform_segment", "finite_mixture")  # a position's kind code indexes this
_MASS, _RECT, _SEGMENT, _MIXTURE = range(len(KINDS))

# a spec's columns and their dtypes in a model file; within each group, entries follow position order
SCENARIO_COLUMNS = {
    "kind": "<u1",  # one kind code per position
    **dict.fromkeys(("mass_x", "mass_y"), "<f8"),  # one per point mass
    **dict.fromkeys(("x0", "x1", "y0", "y1"), "<f8"),  # one per rectangle or segment
    "atoms": "<u4",  # one atom count per mixture
    **dict.fromkeys(("atom_x", "atom_y", "weight"), "<f8"),  # one per atom, mixture after mixture; weights as given
}
# each kind's JSON fields by column, in the order scenario JSON writes them; a mixture's are those of each of its atoms
_FIELDS = (
    {"mass_x": "x", "mass_y": "y"},
    {k: k for k in ("x0", "x1", "y0", "y1")},
    {"x0": "ax", "y0": "ay", "x1": "bx", "y1": "by"},
    {"atom_x": "x", "atom_y": "y", "weight": "weight"},
)


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
        raise ScenarioError(f"scenario.{name}[{j}]: {what}, got {values[j].item()!r}", name, int(j))


class ScenarioSpec:
    """A named product distribution over n positions, held as the columns its sampler reads.

    columns["kind"] gives each position's kind code (an index into KINDS),
    and the parameters sit in one group of columns per formula (see
    SCENARIO_COLUMNS); a column left out is empty.  Construction checks every
    column, raising ScenarioError naming it, and derives the sampling plan
    with numpy alone.  One uniform batch is drawn per input and consumed in
    position order (a rectangle takes two, a segment or a mixture one, a
    point mass none), so samples depend only on (scenario, stream state).
    The formulas read one column of uniforms each, so a (rounds, draws)
    batch gives a block of inputs as rounds single draws would.  A draw
    fills its coordinates grouped by formula (point masses, rectangles and
    segments, then each mixture group) and permutes them into position
    order unless the groups already are in it, as in the built-ins.
    Rectangles and segments share x = x0 + (x1 - x0)*u[ux], y = y0 +
    (y1 - y0)*u[uy], where a segment has uy == ux; both extents must be
    finite.  Point masses are copied, so a -0.0 stays -0.0.  A mixture
    picks atom k, the number of its cumulative weights <= u: mixtures with
    the same atom count share one (count, mixtures) table, so the count is
    a sum over its rows and the tables hold one cell per atom.  Specs are
    equal when their names and column bytes are, so -0.0 differs from 0.0.
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
        with np.errstate(over="ignore"):  # a difference past the float range is rejected below, not warned about
            extent = {"x0": c["x1"] - c["x0"], "y0": c["y1"] - c["y0"]}
        for lo, hi in (("x0", "x1"), ("y0", "y1")):
            _check(lo, ~rect | (c[lo] <= c[hi]), c[lo], f"a uniform_rect's extents must satisfy {lo} <= {hi}")
            _check(hi, np.isfinite(extent[lo]), extent[lo], "the extent from the opposite end must be finite")
        mix, start = np.flatnonzero(kind == _MIXTURE), np.cumsum(atoms) - atoms
        sums = np.add.reduceat(weight, start)  # numpy's own summation order, pairwise past 8 atoms
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
        if bad.size:
            j = int(bad[0])
            raise ScenarioError(f"scenario.weight: the mixture at position {mix[j]} sums to {sums[j].item()!r}, expected 1 within 1e-9", "atoms", j)
        # the sampling plan
        draws = np.array([0, 2, 1, 1])[kind]  # uniforms per input, by kind code
        first = np.cumsum(draws) - draws  # each position's first uniform
        self._draws = int(draws.sum())
        ux = first[affine]
        # per axis: the point masses' values, then the affine group's uniforms, low ends and extents; a segment's y reuses its x uniform
        self._axes = {
            "x": (c["mass_x"], ux, c["x0"], extent["x0"]),
            "y": (c["mass_y"], ux + rect, c["y0"], extent["y0"]),
        }
        self._mixtures = []
        for count in np.unique(atoms).tolist():
            r = np.flatnonzero(atoms == count)
            cells = start[r, None] + np.arange(count)  # (mixtures, count): each row one mixture's atoms
            w = weight[cells]
            cw = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)  # a row sum is a 1-d sum of its weights
            cw[:, -1] = 1.0  # draws are < 1, so the last atom takes any rounding shortfall
            base = np.arange(r.size) * count
            xy = {"x": c["atom_x"][cells].ravel(), "y": c["atom_y"][cells].ravel()}
            # cw.T is (count, mixtures); the middle axis broadcasts over a block's rows of uniforms
            self._mixtures.append((mix[r], first[mix[r]], np.ascontiguousarray(cw.T)[:, None], base, xy))
        # the positions in a draw's grouped order; _order takes a draw back to position order
        grouped = np.concatenate([np.flatnonzero(kind == _MASS), affine, *(m[0] for m in self._mixtures)])
        self._order = None if (grouped == np.arange(self.n)).all() else np.argsort(grouped)

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
    """Deterministic random stream: PCG64 keyed by a 64-bit seed, an int or a numpy integer (not a bool)."""

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):  # int() would take 1.5, "7" or True
            raise ValueError(f"seed must be an integer, got {seed!r}")
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def random(self, size=None):
        return self.generator.random(size)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"


def _coordinates(spec: ScenarioSpec, u: np.ndarray, axes: str) -> list[np.ndarray]:
    """The coordinates drawn from uniform rows u, each row one input's batch: a (rows, n) array per axis in axes."""
    # a mixture's atom is the sum of (row <= its uniform) over its weight rows, per atom-count group
    atoms = [base + (cw <= u.take(ui, axis=1)).sum(axis=0) for _, ui, cw, base, _ in spec._mixtures]
    out = []
    for axis in axes:
        mass, ua, lo, extent = spec._axes[axis]
        col = np.empty((u.shape[0], spec.n))  # grouped by formula, as spec._order reads them
        end = mass.size + ua.size
        if mass.size:
            col[:, : mass.size] = mass
        if ua.size:
            affine = col[:, mass.size : end]
            np.multiply(u.take(ua, axis=1), extent, out=affine)
            affine += lo  # lo + extent * u
        for (idx, *_, xy), atom in zip(spec._mixtures, atoms):
            col[:, end : end + idx.size] = xy[axis][atom]
            end += idx.size
        out.append(col if spec._order is None else col.take(spec._order, axis=1))
    return out


def sample_input(spec: ScenarioSpec, rng: SeededRng) -> InputSet:
    """Draw one input set from the scenario, advancing the stream (see ScenarioSpec for the formulas)."""
    xs, ys = _coordinates(spec, rng.random((1, spec._draws)), "xy")
    return InputSet(xs[0], ys[0])


def sample_xs(spec: ScenarioSpec, rng: SeededRng, rounds: int) -> np.ndarray:
    """The x coordinates of `rounds` successive sample_input draws, as one (rounds, n) array.

    PCG64 gives one output per double, so one (rounds, draws) batch holds
    the batches of `rounds` successive draws row by row, and leaves the
    stream where they would.  The y coordinates are not computed, and the
    values are not checked finite as InputSet checks them.
    """
    return _coordinates(spec, rng.random((rounds, spec._draws)), "x")[0]


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
# JSON round-trip: one object per position

# each kind's keys, and a mixture atom's, in the order a missing one is reported
_KEYS = tuple(dict.fromkeys(("kind", *f.values())) for f in _FIELDS[:_MIXTURE]) + (dict.fromkeys(("kind", "atoms")),)
_ATOM_KEYS = dict.fromkeys(_FIELDS[_MIXTURE].values())
_SCENARIO_KEYS = dict.fromkeys(("name", "n", "per_point"))

# The per-point readers raise with the message's suffix after the object's position, which the caller prepends
# (per_point[i], then .atoms[k]) only when it raises, so a valid file formats no position.


def _require_keys(obj, keys: dict) -> None:
    """Raise ScenarioError unless obj is a dict whose keys are exactly those of keys."""
    if not isinstance(obj, dict):
        raise ScenarioError(f": expected an object, got {type(obj).__name__}")
    if obj.keys() != keys.keys():
        missing = [k for k in keys if k not in obj]
        if missing:
            raise ScenarioError(f": missing field {missing[0]!r}")
        raise ScenarioError(f": unknown field {next(k for k in obj if k not in keys)!r}")


def _number(obj: dict, key: str) -> float:
    value = obj[key]
    if type(value) not in (int, float):  # JSON numbers; a bool is not one
        raise ScenarioError(f".{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f".{key}: an integer too large for a float") from None


def _append_point(obj, columns: dict) -> None:
    """Append one per-point object's kind code and numbers to the column lists."""
    if not isinstance(obj, dict) or "kind" not in obj:
        _require_keys(obj, {"kind": None})  # raises: not an object, or no kind
    try:
        code = KINDS.index(obj["kind"])
    except ValueError:
        raise ScenarioError(f".kind: unknown variant {obj['kind']!r}") from None
    _require_keys(obj, _KEYS[code])
    columns["kind"].append(code)
    if code != _MIXTURE:
        for k, field in _FIELDS[code].items():
            columns[k].append(_number(obj, field))
        return
    atoms = obj["atoms"]
    if not isinstance(atoms, list):
        raise ScenarioError(f".atoms: expected a list, got {type(atoms).__name__}")
    columns["atoms"].append(len(atoms))  # ScenarioSpec rejects an empty list
    for k, atom in enumerate(atoms):
        try:
            _require_keys(atom, _ATOM_KEYS)
            for c, field in _FIELDS[_MIXTURE].items():
                columns[c].append(_number(atom, field))
        except ScenarioError as e:
            raise ScenarioError(f".atoms[{k}]{e}") from None


def _position(columns: dict, name: str, entry: int) -> str:
    """The file field that entry `entry` of column `name` came from: per_point[i].<field>, or per_point[i].atoms[k].<field>."""
    if name in _FIELDS[_MIXTURE]:  # an atom's entry: find its mixture
        ends = np.cumsum(columns["atoms"])
        m = int(np.searchsorted(ends, entry, side="right"))
        return f"{_position(columns, 'atoms', m)}[{entry - ends[m] + columns['atoms'][m]}].{_FIELDS[_MIXTURE][name]}"
    codes = [_MIXTURE] if name == "atoms" else [code for code, f in enumerate(_FIELDS) if name in f]
    i = np.flatnonzero(np.isin(columns["kind"], codes))[entry]
    return f"per_point[{i}].{_FIELDS[columns['kind'][i]].get(name, name)}"


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """The per-point JSON form: one object per position, its kind and then its fields in _FIELDS order."""
    c = {k: iter(v.tolist()) for k, v in spec.columns.items()}
    per_point = []
    for code in spec.columns["kind"].tolist():
        fields = _FIELDS[code].items()
        if code == _MIXTURE:
            atoms = [{field: next(c[k]) for k, field in fields} for _ in range(next(c["atoms"]))]
            per_point.append({"kind": KINDS[code], "atoms": atoms})
        else:
            per_point.append({"kind": KINDS[code], **{field: next(c[k]) for k, field in fields}})
    return {"name": spec.name, "n": spec.n, "per_point": per_point}


def scenario_from_dict(obj) -> ScenarioSpec:
    """Read scenario JSON's per-point form into columns, and check them as a ScenarioSpec.

    A ScenarioError names the field, and an error in a column entry names
    the file's field it came from (per_point[i].ax, not scenario.x0[j]).
    """
    try:
        _require_keys(obj, _SCENARIO_KEYS)
    except ScenarioError as e:
        raise ScenarioError(f"scenario{e}") from None
    per_raw = obj["per_point"]
    if not isinstance(per_raw, list):
        raise ScenarioError(f"scenario.per_point: expected a list, got {type(per_raw).__name__}")
    columns = {k: [] for k in SCENARIO_COLUMNS}
    for i, d in enumerate(per_raw):
        try:
            _append_point(d, columns)
        except ScenarioError as e:
            raise ScenarioError(f"per_point[{i}]{e}") from None
    try:
        spec = ScenarioSpec(obj["name"], **columns)  # ScenarioSpec checks the name is a string
    except ScenarioError as e:
        if e.entry is None:
            raise
        raise ScenarioError(f"{_position(columns, e.column, e.entry)}: {str(e).partition(': ')[2]}") from None  # drop the column's name
    declared_n = obj["n"]
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
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ScenarioError(f"scenario file is not valid UTF-8: {e}") from None
    return loads_scenario(text)
