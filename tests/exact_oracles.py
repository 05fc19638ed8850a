"""Reference computations for the exact polyhedral layer.

The oracles run on the `Fraction` kernel at the end of this file, not on
the integer kernel of `exactgeom` that they check.  Lasserre's recursion
measures an H-polytope without enumerating a single vertex, so its
complement volume checks the atom masses of `gamma_measure`, which come
from vertices and triangulated cones.
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
ran before its array pass.  `loop_quadrature_norms` is the shell
quadrature of `demailly._quadrature_norms` as it ran before its
log-sum-exp reductions: one exp over the whole node grid and one ring
scatter per exponent, with the divergence rule read off the rings.
`loop_exact_norms` is the integer cone sum of `demailly._exact_norms` as
it ran before its array pass: one exponent at a time, in Python ints,
with a `Fraction` <J, v> per ray at every level m.
`fraction_eliminate`,
`fraction_double_description`, `fraction_triangulate` and
`fraction_polytope_volume` are the polyhedral kernel as it was before it
ran on integers: every entry goes through `Fraction`, and every simplex
volume is a `Fraction` of its own.  `fraction_pl_cones` is the cone fan
of `demailly._pl_cones` cut at sum(s) = -1 in `Fraction` points, as it
was before the cut was scaled to integers.  `walk_pl_generators` and
`walk_indicator_support` are the two walks from a weight tree to its
generators that the library had before `weights._generators` served both.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from lelong.demailly import basis_norms, um_eval
from lelong.exactgeom import Vec, dot, frac, vec
from lelong.poly_geom import ExponentSet, _diagram, dominated_hull, sublevel_vertices
from lelong.weights import CoordLog, MaxOf, NegPowLog, PolyLog, Scale, dimension_of, eval_expr, torus_values

Constraint = tuple[Vec, Fraction]  # (a, b) encodes <a, x> <= b


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """Solve an n x n rational system by elimination; None if singular."""
    n = len(rows)
    m, pivots, _ = fraction_eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
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
    rays = fraction_double_description(rows, n + 1)
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


def loop_exact_norms(cones, m: int, degree_cap: int, n: int):
    """(alpha, num, den) with c_alpha / (2 pi)^n = num / den for the admissible alpha.

    With d = 2 alpha + 2 - 2 m J, each ray's -<d, v> is the affine form
    <-2 v, alpha> + (2 m <J, v> - 2 sum(v)), set up once per m.  Its
    coefficients are integers: a ray of J's cone is the t-part of a
    double-description ray (v, lam) active on J's row, so <J, v> = -lam.
    Each alpha then costs integer dot products and products, and the cone
    terms |det V| / prod(-<d, v_i>) add up as one unreduced num / den.
    """
    setup = [(det, [([-2 * x for x in v], int(2 * m * dot(J, v) - 2 * sum(v))) for v in rays])
             for rays, J, det in cones]
    alphas = product(range(degree_cap + 1), repeat=n)
    return [(a, *pair) for a in alphas if (pair := _cone_sum(setup, a)) is not None]


def _cone_sum(setup, alpha) -> tuple[int, int] | None:
    """(num, den) of the cone sum at alpha, or None when some -<d, v_i> <= 0 (divergence)."""
    num, den = 0, 1
    for scale, forms in setup:
        denom = 1
        for w, const in forms:
            e = const + sum(map(int.__mul__, w, alpha))
            if e <= 0:
                return None
            denom *= e
        num, den = num * denom + scale * den, den * denom
    return num, den


def _radial_log_grid(shells: int, width: float, nodes: int):
    """Gauss-Legendre nodes/weights on [-shells*width, 0], shell by shell."""
    x, wq = np.polynomial.legendre.leggauss(nodes)
    starts = -width * (np.arange(shells) + 1)
    s = np.concatenate([(st + width * (x + 1.0) / 2.0) for st in starts])
    wts = np.concatenate([np.full(nodes, 0.0) + wq * width / 2.0 for _ in starts])
    shell_id = np.repeat(np.arange(shells), nodes)
    return s, wts, shell_id


def loop_quadrature_norms(u, m: int, degree_cap: int, n: int):
    """(alpha, c_alpha) for the admissible alpha, by per-axis shell quadrature.

    The log-radius of each axis runs over 48 shells of width 1 with 32
    Gauss-Legendre nodes in one variable, and over 36 shells with 16
    nodes in two.  A monomial is excluded as divergent when the
    shell-ring contributions fail to decay twice in a row while still
    dominating the accumulated total.
    """
    shells, nodes = (48, 32) if n == 1 else (36, 16)
    s, wts, shell_id = _radial_log_grid(shells, 1.0, nodes)
    if n == 1:
        t_axes, grid_w, ring = (s,), wts, shell_id
    else:
        t_axes = (s[:, None], s[None, :])
        grid_w = wts[:, None] * wts[None, :]
        ring = np.maximum(shell_id[:, None], shell_id[None, :])
    chi = np.asarray(torus_values(u, t_axes, tuple(0.0 for _ in range(n))), dtype=float)
    chi = np.broadcast_to(chi, grid_w.shape)

    entries = []
    for alpha in product(range(degree_cap + 1), repeat=n):
        g = sum(
            (2 * a + 2) * np.asarray(ax) for a, ax in zip(alpha, t_axes)
        ) - 2.0 * m * chi
        peak = float(np.max(g))  # shift before exp so divergent tails cannot overflow
        scaled = grid_w * np.exp(g - peak)
        rings = np.zeros(shells)
        np.add.at(rings, np.broadcast_to(ring, scaled.shape).ravel(), scaled.ravel())
        if _diverges(rings):
            continue
        c = (2.0 * math.pi) ** n * math.exp(peak) * float(rings.sum())
        entries.append((alpha, c))
    return entries


def _diverges(rings: np.ndarray, block: int = 6) -> bool:
    """True when the deepest shell contributions fail to decay.

    A convergent norm integral has ring contributions that die off
    geometrically toward the origin, so the last block of shells is a
    small fraction of the block before it.  Blocks (rather than single
    rings) absorb the periodic oscillation that rational-slope kinks of
    the weight imprint on the shell decomposition; stagnation across
    blocks, while the tail still matters for the total, marks the
    integral as divergent.
    """
    if len(rings) < 2 * block:
        block = max(1, len(rings) // 2)
    last = float(rings[-block:].sum())
    prev = float(rings[-2 * block : -block].sum())
    total = float(rings.sum())
    significant = last > 1e-13 * max(total, 1e-300)
    return bool(significant and last >= 0.9 * prev)


# ---------------------------------------------------------------------------
# the Fraction polyhedral kernel


def _fraction_integer_row(row: Sequence) -> tuple[list[int], int]:
    """The row times the least common denominator of its entries, and that factor."""
    scale = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
    return [int(Fraction(x) * scale) for x in row], scale


def fraction_eliminate(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], Fraction]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of a rational matrix.

    Each row is first cleared of denominators.  Returns (m, pivots, det):
    in the integer matrix m, row k (k < len(pivots)) holds the common pivot
    value at column pivots[k] and zeros in every other pivot column; the
    rows after them are zero.  len(pivots) is the rank, and det is the
    determinant of a square input (0 when singular).  Every division is
    exact because every entry of m is a minor of the scaled input.
    """
    scaled = [_fraction_integer_row(r) for r in rows]
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


def fraction_double_description(rows: Sequence[Sequence], d: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Extreme rays of the cone {x in Q^d : <r, x> <= 0 for every row r}.

    Returns (ray, active) pairs: each ray is a primitive integer vector
    and `active` holds the indices of the rows with <r, ray> = 0.  A cone
    that is not pointed has no extreme rays, and the result is empty.

    The pass starts from the simplicial cone of the first d independent
    rows and adds the others one at a time.  A ray pair straddling the new
    hyperplane is combined only when it is adjacent: no third ray is
    active on every row the two share.
    """
    ints = [_fraction_integer_row(r)[0] for r in rows]
    _, start, _ = fraction_eliminate([[r[j] for r in ints] for j in range(d)])
    if len(start) < d:
        return []
    # the rays of the start cone are the columns of -A^-1; reducing [A | I]
    # leaves D * A^-1 on the right, D the common pivot m[k][k]
    m, _, _ = fraction_eliminate([ints[i] + [int(j == k) for j in range(d)] for k, i in enumerate(start)])
    flip = -1 if m[0][0] > 0 else 1
    start_mask = sum(1 << i for i in start)
    # each ray carries the bitmask of the rows it is active on
    rays = [
        (_fraction_primitive([flip * m[k][d + j] for k in range(d)]), start_mask & ~(1 << start[j]))
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
                ray = _fraction_primitive([vp * x + vq * y for x, y in zip(rays[q][0], rays[p][0])])
                new.append((ray, common | bit))
        rays = [
            (ray, act | bit if v == 0 else act) for (ray, act), v in zip(rays, values) if v <= 0
        ] + new
    return sorted(
        (tuple(ray), frozenset(i for i in range(len(ints)) if act >> i & 1)) for ray, act in rays
    )


def _fraction_primitive(ray: list[int]) -> list[int]:
    g = math.gcd(*ray)
    return [x // g for x in ray]


def _fraction_affine_coordinates(points: Sequence[Vec]) -> tuple[list[Vec], int]:
    """Coordinates of `points` in their affine hull, and its dimension d.

    The d pivot coordinates of the differences from the first point are
    independent on the hull, so projecting onto them is injective.
    """
    _, cols, _ = fraction_eliminate([[x - y for x, y in zip(p, points[0])] for p in points[1:]])
    return [tuple(p[c] for c in cols) for p in points], len(cols)


def fraction_triangulate(points: Sequence[Vec]) -> list[tuple[Vec, ...]]:
    """Triangulate conv(points) into simplices of its affine dimension.

    Fans from the lexicographically smallest point at every recursion
    level, so the decomposition is deterministic.
    """
    pts = sorted(set(points))
    return _fraction_fan(pts) if pts else []


def _fraction_fan(pts: list[Vec]) -> list[tuple[Vec, ...]]:
    # pts is sorted and distinct, so pts[0] is the apex
    coords, d = _fraction_affine_coordinates(pts)
    if len(pts) == d + 1:
        return [tuple(pts)]
    simplices: list[tuple[Vec, ...]] = []
    for facet in _fraction_facets(coords, d):
        if 0 not in facet:
            simplices += [(pts[0],) + s for s in _fraction_fan([pts[i] for i in facet])]
    return simplices


def _fraction_facets(coords: list[Vec], d: int) -> list[tuple[int, ...]]:
    """Index sets of the facets of a full-dimensional point configuration.

    The facet inequalities <a, x> <= b are the extreme rays of the cone of
    valid inequalities {(a, b) : <a, p_i> <= b}; the trivial one, a = 0,
    is skipped.
    """
    rays = fraction_double_description([list(c) + [-1] for c in coords], d + 1)
    return [tuple(sorted(act)) for ray, act in rays if any(ray[:d])]


def fraction_simplex_volume(simplex: Sequence[Vec], n: int) -> Fraction:
    rows = [[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]]
    if len(rows) != n:
        return Fraction(0)
    return abs(fraction_eliminate(rows)[2]) / math.factorial(n)


def fraction_polytope_volume(points: Sequence[Vec], n: int) -> Fraction:
    """Exact n-volume of conv(points); 0 when the hull is lower-dimensional."""
    simplices = fraction_triangulate([vec(p) for p in points])
    return sum((fraction_simplex_volume(s, n) for s in simplices), Fraction(0))


def fraction_pl_cones(gens: list[Vec], n: int) -> list[tuple[list[tuple[int, ...]], Vec, int]]:
    """(rays, J, |det rays|) of the simplicial cones of the fan, from Fraction cut points."""
    cones = []
    for J, rays in _diagram(sorted(set(gens)), n)[1]:
        by_cut = {tuple(Fraction(x, -sum(v)) for x in v): v for v in rays}
        for simplex in fraction_triangulate(list(by_cut)):
            V = [by_cut[p] for p in simplex]
            cones.append((V, J, int(abs(fraction_eliminate(V)[2]))))
    return cones


# ---------------------------------------------------------------------------
# the two generator walks


def walk_pl_generators(u, n: int) -> list[Vec] | None:
    """The J with u = max_J <J, log|z|>, or None when u has no such form."""
    if isinstance(u, CoordLog):
        return [tuple(Fraction(int(k == u.axis - 1)) for k in range(n))]
    if isinstance(u, Scale):
        child = walk_pl_generators(u.child, n)
        return None if child is None else [tuple(Fraction(u.factor) * x for x in J) for J in child]
    if isinstance(u, MaxOf):
        out: list[Vec] = []
        for c in u.children:
            gens = walk_pl_generators(c, n)
            if gens is None:
                return None
            out.extend(gens)
        return out
    if isinstance(u, PolyLog) and len(u.terms) == 1 and abs(u.terms[0][0]) == 1:
        J = u.terms[0][1]
        return [tuple(Fraction(j) for j in J) + (Fraction(0),) * (n - len(J))]
    return None


def walk_indicator_support(w, dimension: int | None = None) -> ExponentSet:
    """Exponent set generating the piecewise-linear indicator of w.

    Defined for the polynomial-log / coordinate-log / max / rational-scale
    fragment; raises for weights whose indicator is not piecewise linear.
    """
    n = dimension if dimension is not None else dimension_of(w)

    def gens(node):
        if isinstance(node, PolyLog):
            return [tuple(Fraction(j) for j in J) + (Fraction(0),) * (n - len(J)) for _, J in node.terms]
        if isinstance(node, CoordLog):
            return [tuple(Fraction(1 if i == node.axis - 1 else 0) for i in range(n))]
        if isinstance(node, MaxOf):
            out = []
            for c in node.children:
                out.extend(gens(c))
            return out
        if isinstance(node, Scale):
            f = node.factor
            if not isinstance(f, Fraction):
                raise ValueError("indicator support needs a rational scale factor")
            return [tuple(f * x for x in g) for g in gens(node.child)]
        if isinstance(node, NegPowLog):
            raise ValueError("sub-logarithmic node has no piecewise-linear indicator")
        raise TypeError(f"not a weight expression: {type(node).__name__}")

    return ExponentSet.of(gens(w), n)
