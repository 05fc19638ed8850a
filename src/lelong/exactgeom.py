"""Exact linear algebra and convex-geometry primitives, on integers inside.

Inputs are what `frac` accepts.  Each input matrix or point set is
cleared of denominators once, at the boundary; the kernels then run on
ints, and a Fraction is built only for a result (a determinant, a volume).
Results are exact and independent of evaluation order.  Two kernels:

  * `_bareiss`, fraction-free (Bareiss) Gauss-Jordan elimination, which
    gives ranks, pivot columns, determinants and inverses;
  * `double_description`, the incremental double-description method of
    Motzkin, Raiffa, Thompson and Thrall (1953), in the form of Fukuda
    and Prodon (1996), which turns {x : <r, x> <= 0} into its extreme
    rays and their active rows.

`poly_geom` runs the double description on the homogenized sublevel
polyhedron; convex hulls run it on the cone of valid inequalities and
are triangulated recursively into simplices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

MAX_DD_WORK = 2**21  # ray steps of one double-description pass


class BudgetExceeded(ValueError):
    """A double-description pass needs more ray steps than MAX_DD_WORK."""

    def __init__(self, count: int, limit: int):
        self.count, self.limit = count, limit
        super().__init__(f"double description work of {count} ray steps exceeds the limit of {limit}")


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _integer_row(row: Sequence) -> tuple[list[int], int]:
    """The row times the least common denominator of its entries (what `frac` accepts), and that factor."""
    pairs = [(x if type(x) is int else frac(x)).as_integer_ratio() for x in row]
    scale = math.lcm(*(q for _, q in pairs))
    return [p * (scale // q) for p, q in pairs], scale


def _integer_points(points: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], int]:
    """The points times the least common denominator of all their coordinates, and that factor."""
    rows = [_integer_row(p) for p in points]
    scale = math.lcm(*(s for _, s in rows))
    return [tuple(x * (scale // s) for x in row) for row, s in rows], scale


def _bareiss(m: list, full: bool = False) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of integer rows, in place.

    Returns (m, pivots, det): row k of m (k < len(pivots)) holds the common
    pivot value at column pivots[k], and zeros in every other pivot column
    with `full` (else only below it); the rows after them are zero.
    len(pivots) is the rank, and det is the determinant of a square input
    (0 when singular).
    """
    prev, sign, pivots = 1, 1, []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p, top = m[r][col], m[r]
        for i in range(0 if full else r + 1, len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]  # exact: minors of the input
        prev = p
        pivots.append(col)
    square = len(m) == len(pivots) and all(len(row) == len(m) for row in m)
    return m, pivots, sign * prev if square else 0


def double_description(rows: Sequence[Sequence], d: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Extreme rays of the cone {x in Q^d : <r, x> <= 0 for every row r}.

    Returns (ray, active) pairs: each ray is a primitive integer vector
    and `active` holds the indices of the rows with <r, ray> = 0.  A cone
    that is not pointed has no extreme rays, and the result is empty.

    The pass starts from the simplicial cone of the first d independent
    rows and adds the others one at a time.  A ray pair straddling the new
    hyperplane is combined only when it is adjacent: no third ray is
    active on every row the two share.  The work is counted in ray steps:
    the rays and the straddling pairs of each added row, and the rays
    scanned for each pair that shares enough rows.  Past MAX_DD_WORK the
    pass raises BudgetExceeded.
    """
    ints = [_integer_row(r)[0] for r in rows]
    start = _bareiss([[r[j] for r in ints] for j in range(d)])[1]
    if len(start) < d:
        return []
    # the rays of the start cone are the columns of -A^-1; reducing [A | I]
    # leaves D * A^-1 on the right, D the common pivot m[k][k]
    m = _bareiss([ints[i] + [int(j == k) for j in range(d)] for k, i in enumerate(start)], full=True)[0]
    flip = -1 if m[0][0] > 0 else 1
    start_mask = sum(1 << i for i in start)
    # each ray carries the bitmask of the rows it is active on
    rays = [
        (_primitive([flip * m[k][d + j] for k in range(d)]), start_mask & ~(1 << start[j]))
        for j in range(d)
    ]
    work = 0
    for i in sorted(set(range(len(ints))) - set(start)):
        row, bit = ints[i], 1 << i
        values = [sum(map(int.__mul__, row, ray)) for ray, _ in rays]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        acts = [act for _, act in rays]
        work += len(rays) + len(pos) * len(neg)
        if work > MAX_DD_WORK:
            raise BudgetExceeded(work, MAX_DD_WORK)
        new = []
        for p in pos:
            for q in neg:
                common = acts[p] & acts[q]
                if common.bit_count() < d - 2:
                    continue
                work += len(rays)
                if work > MAX_DD_WORK:
                    raise BudgetExceeded(work, MAX_DD_WORK)
                if next(islice((a for a in acts if a & common == common), 2, None), None) is None:
                    vp, vq = values[p], -values[q]
                    ray = _primitive([vp * x + vq * y for x, y in zip(rays[q][0], rays[p][0])])
                    new.append((ray, common | bit))
        rays = [
            (ray, act | bit if v == 0 else act) for (ray, act), v in zip(rays, values) if v <= 0
        ] + new
    return sorted(
        (tuple(ray), frozenset(i for i in range(len(ints)) if act >> i & 1)) for ray, act in rays
    )


def _primitive(ray: list[int]) -> list[int]:
    g = math.gcd(*ray)
    return [x // g for x in ray]


def _affine_coordinates(points: Sequence[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], int]:
    """Coordinates of `points` in their affine hull, and its dimension d.

    The d pivot coordinates of the differences from the first point are
    independent on the hull, so projecting onto them is injective.
    """
    cols = _bareiss([[x - y for x, y in zip(p, points[0])] for p in points[1:]])[1]
    return [tuple(p[c] for c in cols) for p in points], len(cols)


def _fan(points: list[tuple[int, ...]], scale: int) -> list[tuple[tuple[int, ...], ...]]:
    pts = sorted(set(points))  # pts[0] is the apex
    coords, d = _affine_coordinates(pts)
    if len(pts) == d + 1:
        return [tuple(pts)]
    simplices = []
    for facet in _facets(coords, d, scale):
        if 0 not in facet:
            simplices += [(pts[0],) + s for s in _fan([pts[i] for i in facet], scale)]
    return simplices


def _facets(coords: list[tuple[int, ...]], d: int, scale: int) -> list[tuple[int, ...]]:
    """Index sets of the facets of a full-dimensional configuration of points scaled by `scale`.

    The facet inequalities <a, x> <= b are the extreme rays of the cone of
    valid inequalities {(a, b) : <a, p_i> <= b}; the trivial one, a = 0,
    is skipped.  The rows (c, -scale) are positive multiples of the rows
    (c / scale, -1) of the given points, so the rays and their order are theirs.
    """
    rays = double_description([list(c) + [-scale] for c in coords], d + 1)
    return [tuple(sorted(act)) for ray, act in rays if any(ray[:d])]


def polytope_volume(points: Sequence[Sequence], n: int) -> Fraction:
    """Exact n-volume of conv(points); 0 when the hull is lower-dimensional.

    The |det|s of the simplices of the integer-scaled points add up as
    one int, which is divided by scale^n n! at the end.
    """
    ints, scale = _integer_points(points)
    simplices = [s for s in _fan(ints, scale) if len(s) == n + 1]
    total = sum(abs(_bareiss([[x - y for x, y in zip(p, s[0])] for p in s[1:]])[2]) for s in simplices)
    return Fraction(total, scale**n * math.factorial(n))
