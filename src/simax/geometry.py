"""Planar points, dominance, and certified coordinate-wise maxima baselines.

A point p dominates q when it is at least as large in both coordinates and
strictly larger in one.  The maxima (the "staircase") are the points no other
point dominates.  Both reference algorithms here return a :class:`Certificate`
that an independent linear-time pass can check, so downstream speedups never
have to be trusted blindly.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple

import numpy as np


class Point(NamedTuple):
    x: float
    y: float


def dominates(p: Point, q: Point) -> bool:
    """True iff p is >= q in both coordinates and > in at least one."""
    return p[0] >= q[0] and p[1] >= q[1] and (p[0] > q[0] or p[1] > q[1])


class InputSet:
    """An ordered list of n >= 1 planar points, stored as parallel float64 arrays.

    The index of a point in the original order is its identity; certificates
    refer to points by these indices.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if xs.size == 0:
            raise ValueError("input set must contain at least one point")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("coordinates must be finite")
        self.xs = xs
        self.ys = ys

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "InputSet":
        pts = list(points)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def __len__(self) -> int:
        return self.n

    def point(self, i: int) -> Point:
        return Point(float(self.xs[i]), float(self.ys[i]))

    def __repr__(self) -> str:
        return f"InputSet(n={self.n})"


@dataclass(frozen=True)
class Certificate:
    """Verifiable description of the maxima of one input set.

    maxima lists the maximal indices left to right along the staircase
    (ascending x, descending y; consecutive entries may coincide only for
    exact duplicate points).  Every non-maximal index appears in dominators,
    mapped to some index whose point dominates it.
    """

    maxima: tuple[int, ...]
    dominators: dict[int, int]

    def maxima_set(self) -> frozenset[int]:
        return frozenset(self.maxima)


@dataclass
class BaselineStats:
    """Comparison counters for the sort-based baseline.

    sort_cost counts key comparisons made by the sort; comparisons counts
    coordinate comparisons made by the sweep (2 per dominance check, 1 per
    realizer improvement test).
    """

    comparisons: int = 0
    sort_cost: int = 0


class CertificateIndexError(ValueError):
    """A certificate mentioned an index outside the input's range.

    Deliberately distinct from a verification failure: an out-of-range index
    means the certificate does not even describe this input.
    """


# ---------------------------------------------------------------------------
# reference algorithms


def brute_force_maxima(inp: InputSet) -> Certificate:
    """Quadratic oracle: test every ordered pair.

    The dominator recorded for a non-maximal point is the smallest index that
    dominates it, which makes the output a deterministic function of the
    input.  Memory is Theta(n^2) bits; intended for n up to a few thousand.
    """
    xs, ys = inp.xs, inp.ys
    gx = xs[None, :] >= xs[:, None]
    gy = ys[None, :] >= ys[:, None]
    strict = (xs[None, :] > xs[:, None]) | (ys[None, :] > ys[:, None])
    dom = gx & gy & strict  # dom[i, j]: point j dominates point i
    beaten = dom.any(axis=1)
    first = dom.argmax(axis=1)
    max_idx = np.flatnonzero(~beaten)
    # ascending x; ties can only be exact duplicates, break them by index
    order = np.lexsort((max_idx, xs[max_idx]))
    maxima = tuple(int(i) for i in max_idx[order])
    dominators = {int(i): int(first[i]) for i in np.flatnonzero(beaten)}
    return Certificate(maxima=maxima, dominators=dominators)


def _heapsort_indices(xs, ys) -> tuple[list[int], int]:
    """Sort point indices by (x, y, index) with an explicitly counted heapsort.

    Non-adaptive on purpose: the comparison count is Theta(n log n) whether or
    not the input arrives presorted, so it is a meaningful scaling baseline.
    Returns the sorted index list and the comparisons it made.
    """
    a = [(float(xs[i]), float(ys[i]), i) for i in range(len(xs))]
    n = len(a)
    cost = 0

    def siftdown(root: int, end: int) -> None:
        nonlocal cost
        while True:
            child = 2 * root + 1
            if child > end:
                return
            if child + 1 <= end:
                cost += 1
                if a[child] < a[child + 1]:
                    child += 1
            cost += 1
            if a[root] < a[child]:
                a[root], a[child] = a[child], a[root]
                root = child
            else:
                return

    for start in range(n // 2 - 1, -1, -1):
        siftdown(start, n - 1)
    for end in range(n - 1, 0, -1):
        a[0], a[end] = a[end], a[0]
        siftdown(0, end - 1)
    return [t[2] for t in a], cost


def sort_scan_maxima(inp: InputSet, stats: BaselineStats | None = None) -> Certificate:
    """Classical baseline: sort by x, then sweep right to left.

    The sweep keeps the realizer of the running y-maximum (on ties, the point
    seen first, i.e. the one with the largest x).  A swept point is dominated
    iff the realizer dominates it, so the realizer doubles as the certificate
    witness.  Comparison accounting is described on :class:`BaselineStats`.
    """
    xs, ys = inp.xs, inp.ys
    order, sort_cost = _heapsort_indices(xs, ys)
    comparisons = 0
    maxima_rev: list[int] = []
    dominators: dict[int, int] = {}
    r = -1  # realizer index, -1 before the first point
    rx = ry = 0.0
    for i in reversed(order):
        px = float(xs[i])
        py = float(ys[i])
        if r >= 0:
            comparisons += 2
            if rx >= px and ry >= py and (rx > px or ry > py):
                dominators[i] = r
                continue
        maxima_rev.append(i)
        if r >= 0:
            comparisons += 1
            if py > ry:
                r, rx, ry = i, px, py
        else:
            r, rx, ry = i, px, py
    if stats is not None:
        stats.comparisons += comparisons
        stats.sort_cost += sort_cost
    return Certificate(maxima=tuple(reversed(maxima_rev)), dominators=dominators)


# ---------------------------------------------------------------------------
# verification


def _index_array(values: Collection, n: int, name: str) -> np.ndarray:
    """values as an int64 array; CertificateIndexError names the first entry that is not an int in [0, n).

    values may be any sized collection (a tuple, dict keys, dict values).
    Types are checked before the conversion, which would truncate 1.5 to 1
    and turn True into 1.
    """
    if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in set(map(type, values))):
        with suppress(OverflowError):
            arr = np.fromiter(values, np.int64, len(values))
            if not arr.size or (arr.min() >= 0 and arr.max() < n):
                return arr
    for v in values:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not 0 <= v < n:
            raise CertificateIndexError(f"{name} index {v!r} is not an int in [0, {n})")


def check_certificate(inp: InputSet, cert: Certificate) -> str | None:
    """Linear-time certificate check; None if valid, else the first failure reason.

    Raises CertificateIndexError when the certificate refers to indices the
    input does not have, or to non-integer ones (a malformed certificate,
    not merely a wrong one).
    """
    n = inp.n
    xs, ys = inp.xs, inp.ys
    maxima = _index_array(cert.maxima, n, "maxima")
    dominated = _index_array(cert.dominators.keys(), n, "dominated")
    dominator = _index_array(cert.dominators.values(), n, "dominator")

    if not maxima.size:
        return "no maxima listed (a nonempty input always has at least one)"
    seen = np.zeros(n, dtype=bool)
    seen[maxima] = True
    if np.count_nonzero(seen) < maxima.size:
        order = np.argsort(maxima, kind="stable")
        repeats = order[1:][maxima[order[1:]] == maxima[order[:-1]]]  # every occurrence after the first
        return f"index {maxima[repeats.min()]} listed twice among maxima"
    both = seen[dominated]
    if both.any():
        return f"index {dominated[both.argmax()]} is both maximal and dominated"
    seen[dominated] = True
    if not seen.all():
        return f"index {int(np.flatnonzero(~seen)[0])} missing from the certificate"

    # staircase shape: strictly right and strictly down, duplicates exempt
    ax, ay, bx, by = xs[maxima[:-1]], ys[maxima[:-1]], xs[maxima[1:]], ys[maxima[1:]]
    bad = ~(((ax == bx) & (ay == by)) | ((ax < bx) & (ay > by)))
    if bad.any():
        k = bad.argmax()
        return f"maxima {maxima[k]} and {maxima[k + 1]} do not step down the staircase"

    dx, dy, wx, wy = xs[dominated], ys[dominated], xs[dominator], ys[dominator]
    bad = ~((wx >= dx) & (wy >= dy) & ((wx > dx) | (wy > dy)))  # also flags i == j
    if bad.any():
        k = bad.argmax()
        i, j = dominated[k], dominator[k]
        return f"index {i} listed as its own dominator" if i == j else f"index {j} does not dominate index {i}"
    return None


def verify_certificate(inp: InputSet, cert: Certificate) -> bool:
    """True iff cert is a valid maxima certificate for inp.  O(n)."""
    return check_certificate(inp, cert) is None
