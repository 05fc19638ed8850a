"""Reference computations for the exact polyhedral layer.

Lasserre's recursion measures an H-polytope without enumerating a single
vertex, so its complement volume checks the atom masses of
`gamma_measure`, which come from vertices and triangulated cones.
`enumerate_vertices` gives the vertices of an H-polytope, whose
triangulated volume the recursion checks in turn.
"""

from fractions import Fraction
from typing import Sequence

from lelong.exactgeom import Constraint, Vec, double_description, eliminate, frac, vec
from lelong.poly_geom import ExponentSet, sublevel_vertices


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """Solve an n x n rational system by elimination; None if singular."""
    n = len(rows)
    m, pivots, _ = eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(Fraction(m[k][n], m[k][k]) for k in range(n))


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


def _normalize_constraint(a, b: Fraction) -> Constraint:
    lead = next((x for x in a if x != 0), None)
    if lead is None:
        return a, (Fraction(0) if b >= 0 else Fraction(-1))
    s = abs(lead)
    return tuple(x / s for x in a), b / s


def hpolytope_volume(constraints: Sequence[Constraint], n: int) -> Fraction:
    """Exact volume of a bounded {x : Ax <= b} by Lasserre's recursion.

    Each facet term is b_i / |a_ik| times the volume of the facet
    projected along coordinate k; the norm factors cancel, so every
    intermediate quantity stays rational.  Signed terms make the choice
    of origin irrelevant.
    """
    rows = {_normalize_constraint(vec(a), frac(b)) for a, b in constraints}
    return _lasserre(sorted(rows), n)


def _lasserre(rows: list[Constraint], n: int) -> Fraction:
    trivial = [b for a, b in rows if all(x == 0 for x in a)]
    if any(b < 0 for b in trivial):
        return Fraction(0)
    rows = [(a, b) for a, b in rows if any(x != 0 for x in a)]
    if n == 1:
        upper = [b / a[0] for a, b in rows if a[0] > 0]
        lower = [b / a[0] for a, b in rows if a[0] < 0]
        if not upper or not lower:
            raise ValueError("unbounded polyhedron")
        length = min(upper) - max(lower)
        return length if length > 0 else Fraction(0)
    total = Fraction(0)
    for i, (a, b) in enumerate(rows):
        k = next(j for j, x in enumerate(a) if x != 0)
        sub: list[Constraint] = []
        for j, (c, d) in enumerate(rows):
            if j == i:
                continue
            f = c[k] / a[k]
            nc = tuple(c[t] - f * a[t] for t in range(n) if t != k)
            sub.append(_normalize_constraint(nc, d - f * b))
        total += (b / abs(a[k])) * _lasserre(sorted(set(sub)), n - 1)
    return total / n


def complement_volume(S: ExponentSet) -> Fraction:
    """Volume of the orthant region cut off below the Newton diagram.

    Valid when every coordinate axis of exponent space carries a pure
    generator (p e_k), so the region is bounded:  it then equals
    M^n - Vol([0, M]^n  intersect  conv(S)+R_+^n)  for any box bound M
    at least the largest axis intercept.  Serves as an independent
    cross-check of the atom masses.
    """
    n = S.dimension
    for k in range(n):
        if not any(p[k] > 0 and all(p[j] == 0 for j in range(n) if j != k) for p in S.points):
            raise ValueError(f"no pure generator on axis {k + 1}; region is unbounded")
    M = max(x for p in S.points for x in p) + 1
    verts = [t0 for t0 in sublevel_vertices(S).extreme_points]
    cons: list[Constraint] = []
    for t0 in verts:
        cons.append((t0, Fraction(-1)))  # <a, t0> <= -1 cuts out the polyhedron
    for k in range(n):
        e = tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))
        ne = tuple(-x for x in e)
        cons.append((e, M))
        cons.append((ne, Fraction(0)))
    inside = hpolytope_volume(cons, n)
    return M**n - inside
