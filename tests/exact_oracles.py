"""Reference computations for the exact polyhedral layer.

Lasserre's recursion measures an H-polytope without enumerating a single
vertex, so its complement volume checks the atom masses of
`gamma_measure`, which come from vertices and triangulated cones.
`enumerate_vertices` gives the vertices of an H-polytope, whose
triangulated volume the recursion checks in turn.  `sweep_cones` finds
the linearity cones of a piecewise-linear weight in one and two variables
by sorting the directions where two generators tie, without the
double-description fan.  `cone_integral` sums a Bergman norm over either
fan ray by ray in `Fraction`, the way the library summed it before its
integer cone sums.  `indicator_eval`
evaluates an indicator max_J <J, log|y|> pointwise in pure Python, apart
from the numeric weight evaluation it checks.
`sandwich_constants_per_point` fits the sandwich constants one point
and one level at a time through `eval_expr`, the loop `sandwich_check`
ran before its array pass.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from lelong.demailly import basis_norms, um_eval
from lelong.exactgeom import Constraint, Vec, double_description, eliminate, frac, vec
from lelong.poly_geom import ExponentSet, dominated_hull, sublevel_vertices
from lelong.weights import dimension_of, eval_expr


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


@dataclass(frozen=True)
class Indicator:
    """Canonical form: generators reduced to hull vertices.

    Two indicators are equal iff their reduced generator sets are equal.
    """

    generators: ExponentSet

    @classmethod
    def of(cls, points, dimension: int | None = None) -> "Indicator":
        raw = ExponentSet.of(points, dimension)
        hull = dominated_hull(raw).hull_vertices
        return cls(ExponentSet.of(hull))


def indicator_eval(phi: Indicator | ExponentSet, y: Sequence[complex]) -> float:
    """max over generators J of <J, log|y|>, for y in the unit polydisk.

    A coordinate y_k = 0 contributes -inf only to generators with a
    positive k-th entry; the result is -inf when every generator is
    killed that way.
    """
    S = phi.generators if isinstance(phi, Indicator) else phi
    if len(y) != S.dimension:
        raise ValueError(f"point has dimension {len(y)}, indicator has {S.dimension}")
    logs = []
    for yk in y:
        m = abs(yk)
        if m >= 1:
            raise ValueError(f"point outside the open unit polydisk: |{yk}| >= 1")
        logs.append(math.log(m) if m > 0 else -math.inf)
    best = -math.inf
    for J in S.points:
        term = 0.0
        for Jk, lk in zip(J, logs):
            if Jk:
                term += float(Jk) * lk
        best = max(best, term)
    return best


def sweep_cones(gens: list[Vec], n: int) -> list[tuple[tuple[Vec, ...], Vec, Fraction]]:
    """Simplicial cones covering s <= 0 on each of which max_J <J, s> is linear.

    Returns (rays, J, |det rays|) with J the generator active on the cone.
    In two dimensions the rays are the two axes and every direction of
    the open negative quadrant where two generators tie; the ray at
    parameter x in [0, 1] is (x - 1, -x), so consecutive rays x < y span
    a cone with |det| = y - x.
    """
    if n == 1:
        cones = [(((Fraction(-1),),), Fraction(1))]
    else:
        xs = {Fraction(0), Fraction(1)}
        for J, K in combinations(gens, 2):
            d1, d2 = J[0] - K[0], J[1] - K[1]
            if d1 * d2 < 0:  # <J - K, s> = 0 at s = -(|d2|, |d1|)
                xs.add(abs(d1) / (abs(d1) + abs(d2)))
        xs = sorted(xs)
        cones = [
            (((x - 1, -x), (y - 1, -y)), y - x) for x, y in zip(xs, xs[1:])
        ]
    out = []
    for rays, det in cones:
        inner = tuple(sum(v[k] for v in rays) for k in range(n))
        J = max(gens, key=lambda G: sum(g * s for g, s in zip(G, inner)))
        out.append((rays, J, det))
    return out


def cone_integral(cones, m: int, alpha) -> Fraction | None:
    """c_alpha / (2 pi)^n over simplicial cones (rays, J, |det|), or None when it diverges.

    A cone with rays v_i and active generator J adds |det V| / prod(-<d, v_i>),
    d = 2 alpha + 2 - 2 m J, one `Fraction` per ray; the integral diverges
    when some -<d, v_i> <= 0.
    """
    total = Fraction(0)
    for rays, J, det in cones:
        d = [2 * a + 2 - 2 * m * j for a, j in zip(alpha, J)]
        denom = Fraction(1)
        for v in rays:
            e = -sum(dk * vk for dk, vk in zip(d, v))
            if e <= 0:
                return None
            denom *= e
        total += det / denom
    return total


def sandwich_constants_per_point(u, m_list, degree_cap=None, sample_points=None,
                                 polyradii=(0.05,), dim=None) -> tuple[dict, dict]:
    """(c1_by_m, c2_by_m) of `sandwich_check`, one point at a time.

    Every level m gets its own `basis_norms`, and u(z), u_m(z) and the
    sup of u on each bumped polydisk are scalar `eval_expr` calls, made
    again for every m.  Bumped points outside the unit polydisk are
    skipped; inputs are not validated.
    """
    n = dim if dim is not None else dimension_of(u)
    if sample_points is None:
        sample_points = list(product([0.05, 0.15, 0.3, 0.5, 0.7, 0.85], repeat=n))
    c1_by_m = {}
    c2_by_m = {}
    for m in m_list:
        basis = basis_norms(u, m, degree_cap, dim=n)
        c1 = 0.0
        log_c2 = -math.inf
        for z in sample_points:
            uz = eval_expr(u, z)
            umz = um_eval(basis, z)
            if math.isfinite(uz):
                c1 = max(c1, m * (uz - umz))
            for r in polyradii:
                bumped = tuple(abs(zk) + r for zk in z)
                if any(b >= 1 for b in bumped):
                    continue
                sup_u = eval_expr(u, bumped)  # multicircled weights increase in moduli
                log_c2 = max(log_c2, m * (umz - sup_u) + n * math.log(r))
        c1_by_m[m] = c1
        c2_by_m[m] = math.exp(log_c2)
    return c1_by_m, c2_by_m
