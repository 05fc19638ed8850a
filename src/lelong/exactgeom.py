"""Exact rational linear algebra and convex-geometry primitives.

Everything here works over the rationals, so results are exact and
independent of evaluation order.  Two kernels carry the module:

  * `eliminate`, fraction-free (Bareiss) Gauss-Jordan elimination, which
    gives ranks, pivot columns, determinants and inverses;
  * `double_description`, the incremental double-description method of
    Motzkin, Raiffa, Thompson and Thrall (1953), in the form of Fukuda
    and Prodon (1996), which turns {x : <r, x> <= 0} into its extreme
    rays and their active rows.

Vertex enumeration runs the double description on the homogenized
polyhedron; convex hulls run it on the cone of valid inequalities and
are triangulated recursively into simplices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Constraint = tuple[Vec, Fraction]  # (a, b) encodes <a, x> <= b


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
    """The row times the least common denominator of its entries, and that factor."""
    scale = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
    return [int(Fraction(x) * scale) for x in row], scale


def eliminate(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], Fraction]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of a rational matrix.

    Each row is first cleared of denominators.  Returns (m, pivots, det):
    in the integer matrix m, row k (k < len(pivots)) holds the common pivot
    value at column pivots[k] and zeros in every other pivot column; the
    rows after them are zero.  len(pivots) is the rank, and det is the
    determinant of a square input (0 when singular).  Every division is
    exact because every entry of m is a minor of the scaled input.
    """
    scaled = [_integer_row(r) for r in rows]
    m = [row for row, _ in scaled]
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
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    square = len(m) == len(pivots) and all(len(row) == len(m) for row in m)
    det = Fraction(sign * prev, math.prod(s for _, s in scaled)) if square else Fraction(0)
    return m, pivots, det


def double_description(rows: Sequence[Sequence], d: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Extreme rays of the cone {x in Q^d : <r, x> <= 0 for every row r}.

    Returns (ray, active) pairs: each ray is a primitive integer vector
    and `active` holds the indices of the rows with <r, ray> = 0.  A cone
    that is not pointed has no extreme rays, and the result is empty.

    The pass starts from the simplicial cone of the first d independent
    rows and adds the others one at a time.  A ray pair straddling the new
    hyperplane is combined only when it is adjacent: no third ray is
    active on every row the two share.
    """
    ints = [_integer_row(r)[0] for r in rows]
    _, start, _ = eliminate([[r[j] for r in ints] for j in range(d)])
    if len(start) < d:
        return []
    # the rays of the start cone are the columns of -A^-1; reducing [A | I]
    # leaves D * A^-1 on the right, D the common pivot m[k][k]
    m, _, _ = eliminate([ints[i] + [int(j == k) for j in range(d)] for k, i in enumerate(start)])
    flip = -1 if m[0][0] > 0 else 1
    start_mask = sum(1 << i for i in start)
    # each ray carries the bitmask of the rows it is active on
    rays = [
        (_primitive([flip * m[k][d + j] for k in range(d)]), start_mask & ~(1 << start[j]))
        for j in range(d)
    ]
    for i in sorted(set(range(len(ints))) - set(start)):
        row, bit = ints[i], 1 << i
        values = [sum(map(int.__mul__, row, ray)) for ray, _ in rays]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        new = []
        for p in pos:
            for q in neg:
                common = rays[p][1] & rays[q][1]
                if common.bit_count() < d - 2 or any(
                    k != p and k != q and common & act == common for k, (_, act) in enumerate(rays)
                ):
                    continue
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


def enumerate_vertices(constraints: Sequence[Constraint], n: int) -> list[Vec]:
    """All vertices of {x : <a_i, x> <= b_i}, by double description.

    The homogenized cone {(x, lam) : <a_i, x> <= b_i lam, lam >= 0} has the
    rays (v, 1) for the vertices v and (r, 0) for the extreme rays of the
    recession cone.  A polyhedron that contains a line has no vertex, and
    its cone is not pointed.
    """
    rows = [list(vec(a)) + [-frac(b)] for a, b in constraints]
    rows.append([0] * n + [-1])
    rays = double_description(rows, n + 1)
    return sorted(tuple(Fraction(x, ray[n]) for x in ray[:n]) for ray, _ in rays if ray[n] > 0)


def _affine_coordinates(points: Sequence[Vec]) -> tuple[list[Vec], int]:
    """Coordinates of `points` in their affine hull, and its dimension d.

    The d pivot coordinates of the differences from the first point are
    independent on the hull, so projecting onto them is injective.
    """
    _, cols, _ = eliminate([[x - y for x, y in zip(p, points[0])] for p in points[1:]])
    return [tuple(p[c] for c in cols) for p in points], len(cols)


def triangulate(points: Sequence[Vec]) -> list[tuple[Vec, ...]]:
    """Triangulate conv(points) into simplices of its affine dimension.

    Fans from the lexicographically smallest point at every recursion
    level, so the decomposition is deterministic.
    """
    pts = sorted(set(points))
    return _fan(pts) if pts else []


def _fan(pts: list[Vec]) -> list[tuple[Vec, ...]]:
    # pts is sorted and distinct, so pts[0] is the apex
    coords, d = _affine_coordinates(pts)
    if len(pts) == d + 1:
        return [tuple(pts)]
    simplices: list[tuple[Vec, ...]] = []
    for facet in _facets(coords, d):
        if 0 not in facet:
            simplices += [(pts[0],) + s for s in _fan([pts[i] for i in facet])]
    return simplices


def _facets(coords: list[Vec], d: int) -> list[tuple[int, ...]]:
    """Index sets of the facets of a full-dimensional point configuration.

    The facet inequalities <a, x> <= b are the extreme rays of the cone of
    valid inequalities {(a, b) : <a, p_i> <= b}; the trivial one, a = 0,
    is skipped.
    """
    rays = double_description([list(c) + [-1] for c in coords], d + 1)
    return [tuple(sorted(act)) for ray, act in rays if any(ray[:d])]


def simplex_volume(simplex: Sequence[Vec], n: int) -> Fraction:
    rows = [[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]]
    if len(rows) != n:
        return Fraction(0)
    return abs(eliminate(rows)[2]) / math.factorial(n)


def polytope_volume(points: Sequence[Vec], n: int) -> Fraction:
    """Exact n-volume of conv(points); 0 when the hull is lower-dimensional."""
    simplices = triangulate([vec(p) for p in points])
    return sum((simplex_volume(s, n) for s in simplices), Fraction(0))
