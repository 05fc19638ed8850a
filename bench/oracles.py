"""Independent reference values for the benchmark's correctness checks.

Everything here is written from the closed forms, with the standard
library only; nothing imports `lelong`.  Exact quantities are Fractions.

* 2-D Newton polygons: the lower hull by a monotone chain, the covolume
  by the shoelace formula, Newton number = 2 * covolume (Kouchnirenko,
  1976), and the atoms (edge normals, triangle areas) of the boundary
  measure.
* 2-D generalized number: covol(A + B) - covol(A) - covol(B) for
  convenient A and B (the mixed covolume), and the atom sum
  2 * sum mass * min_J <J, -t0> for any A.
* tau: the (n-1)-D Newton number of the generators with J_k = 0.
* simplex weights {p_k e_k}: Newton number prod p_k; generalized number
  of A against it prod p_k * min_J sum_k J_k / p_k.
* Jensen's formula: the torus mean of log|c1 z^J1 + c2 z^J2| is
  max(log|c1| + <J1, t>, log|c2| + <J2, t>) when J1 != J2.
* Bergman norms of u = max(a log|z1|, b log|z2|): Howald's criterion
  (alpha + 1 in the interior of m * Newton polygon) and the closed form
  of the norm integral split over the two linearity cones.

`selfcheck()` tests these against hand values; run this file to call it.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

TWO_PI = 2.0 * math.pi


def fr(x) -> F:
    return x if isinstance(x, F) else F(x)


def dot(u, v) -> F:
    return sum((fr(a) * fr(b) for a, b in zip(u, v)), F(0))


# ---------------------------------------------------------------------------
# 2-D Newton polygons


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def is_convenient(points) -> bool:
    """Every axis carries a pure generator p * e_k."""
    n = len(points[0])
    return all(
        any(p[k] > 0 and all(p[j] == 0 for j in range(n) if j != k) for p in points)
        for k in range(n)
    )


def newton_boundary_2d(points) -> list[tuple[F, F]]:
    """Vertices of the bounded edges of conv(points) + R_+^2, in order from
    the intercept on the second axis to the intercept on the first."""
    pts = sorted({(fr(x), fr(y)) for x, y in points})
    if not is_convenient(pts):
        raise ValueError("2-D Newton boundary needs a convenient set")
    hull: list[tuple[F, F]] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    end = next(i for i, p in enumerate(hull) if p[1] == 0)
    return hull[: end + 1]


def atoms_2d(points) -> list[tuple[tuple[F, F], F]]:
    """(t0, mass) per bounded edge: <p, t0> = <q, t0> = -1, mass = |det(p, q)| / 2."""
    b = newton_boundary_2d(points)
    out = []
    for p, q in zip(b, b[1:]):
        d = p[0] * q[1] - p[1] * q[0]
        t0 = ((p[1] - q[1]) / d, (q[0] - p[0]) / d)
        out.append((t0, abs(d) / 2))
    return out


def covol_2d(points) -> F:
    return sum((m for _, m in atoms_2d(points)), F(0))


def newton_2d(points) -> F:
    return 2 * covol_2d(points)


def minkowski(A, B):
    return [tuple(fr(x) + fr(y) for x, y in zip(a, b)) for a in A for b in B]


def generalized_2d(A, B) -> F:
    """Mixed covolume form, for convenient A and B."""
    return covol_2d(minkowski(A, B)) - covol_2d(A) - covol_2d(B)


def generalized_atoms_2d(A, B) -> F:
    """Atom-sum form against the convenient weight B; A arbitrary."""
    total = F(0)
    for t0, mass in atoms_2d(B):
        neg = tuple(-x for x in t0)
        total += mass * min(dot(J, neg) for J in A)
    return 2 * total


def tau_nd(points, k: int) -> F:
    """tau(S, k) (1-based k) as the (n-1)-D Newton number of the generators
    with J_k = 0; implemented for n = 2 and 3."""
    n = len(points[0])
    rest = [tuple(fr(x) for j, x in enumerate(p) if j != k - 1) for p in points if p[k - 1] == 0]
    if n == 2:
        return min(r[0] for r in rest)
    if n == 3:
        return newton_2d(rest)
    raise ValueError("tau oracle covers n = 2 and 3")


def simplex_newton(p) -> F:
    out = F(1)
    for x in p:
        out *= fr(x)
    return out


def simplex_generalized(A, p) -> F:
    return simplex_newton(p) * min(sum((fr(J[k]) / fr(p[k]) for k in range(len(p))), F(0)) for J in A)


def simplex_atom(p) -> tuple[F, ...]:
    return tuple(F(-1) / fr(x) for x in p)


# ---------------------------------------------------------------------------
# numeric references


def poly_order(exponents, a) -> F:
    """min_J <J, a>: the directional density of log|P| for P with these exponents."""
    return min(dot(J, a) for J in exponents)


def jensen_mean(terms, t) -> float:
    """Torus mean of log|c1 z^J1 + c2 z^J2| at log-radii t (J1 != J2)."""
    (c1, J1), (c2, J2) = terms
    l1 = math.log(abs(c1)) + sum(j * x for j, x in zip(J1, t))
    l2 = math.log(abs(c2)) + sum(j * x for j, x in zip(J2, t))
    return max(l1, l2)


def jensen_gap(terms, t) -> float:
    """|difference of the two log-moduli|; the quadrature is exact to ~exp(-gap * N / |J1 - J2|)."""
    (c1, J1), (c2, J2) = terms
    l1 = math.log(abs(c1)) + sum(j * x for j, x in zip(J1, t))
    l2 = math.log(abs(c2)) + sum(j * x for j, x in zip(J2, t))
    return abs(l1 - l2)


# ---------------------------------------------------------------------------
# Bergman norms for u = max(a log|z1|, b log|z2|)


def howald_admissible(a, b, m: int, alpha) -> bool:
    """alpha + 1 lies in the interior of m * (conv{(a,0),(0,b)} + R_+^2)."""
    return F(alpha[0] + 1) / fr(a) + F(alpha[1] + 1) / fr(b) > m


def bergman_norm_exact(a, b, m: int, alpha) -> F | None:
    """c_alpha / (2 pi)^2 as a Fraction, or None when the integral diverges.

    c_alpha = (2 pi)^2 int_{s <= 0} exp(<2 alpha + 2, s> - 2 m max(a s1, b s2)) ds;
    on the cone a s1 >= b s2 the integral is 1 / (c2 (c1 - 2 m a + c2 a / b)),
    and symmetrically on the other cone, with c = 2 alpha + 2.
    """
    if not howald_admissible(a, b, m, alpha):
        return None
    a, b = fr(a), fr(b)
    c1, c2 = F(2 * alpha[0] + 2), F(2 * alpha[1] + 2)
    return 1 / (c2 * (c1 - 2 * m * a + c2 * a / b)) + 1 / (c1 * (c2 - 2 * m * b + c1 * b / a))


def admissible_set(a, b, m: int, cap: int) -> list[tuple[int, int]]:
    return [al for al in product(range(cap + 1), repeat=2) if howald_admissible(a, b, m, al)]


@lru_cache(maxsize=None)
def _log_norms(a, b, m: int, cap: int) -> tuple[tuple[tuple[int, int], float], ...]:
    return tuple((al, math.log(TWO_PI ** 2 * float(bergman_norm_exact(a, b, m, al))))
                 for al in admissible_set(a, b, m, cap))


def um_value(a, b, m: int, cap: int, logz) -> float:
    """Level-m approximant (1/2m) log sum |z^alpha|^2 / c_alpha at log-moduli logz."""
    gs = [2 * al[0] * logz[0] + 2 * al[1] * logz[1] - log_c
          for al, log_c in _log_norms(fr(a), fr(b), m, cap)]
    if not gs:
        return -math.inf
    peak = max(gs)
    return (peak + math.log(math.fsum(math.exp(g - peak) for g in gs))) / (2 * m)


def sandwich_constants(a, b, m: int, cap: int, radii, polyradii) -> tuple[float, float]:
    """(C1, C2) of the sandwich fit on the sample grid radii x radii."""
    def u(x1, x2):
        return max(float(a) * math.log(x1), float(b) * math.log(x2))

    c1 = 0.0
    log_c2 = -math.inf
    for r1 in radii:
        for r2 in radii:
            um = um_value(a, b, m, cap, (math.log(r1), math.log(r2)))
            c1 = max(c1, m * (u(r1, r2) - um))
            for r in polyradii:
                if r1 + r >= 1 or r2 + r >= 1:
                    continue
                log_c2 = max(log_c2, m * (um - u(r1 + r, r2 + r)) + 2 * math.log(r))
    return c1, math.exp(log_c2)


def linear_in_inverse_r(levels, ys) -> float:
    """Intercept of the least-squares line y = c0 + c1 / r through the last three levels."""
    xs = [1.0 / r for r in levels[-3:]]
    ys = list(ys[-3:])
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return my - slope * mx


def um_sweep_estimate(a, b, m: int, cap: int, phi_points, levels) -> float:
    """The swept-measure estimate of the density of u_m against the weight,
    with closed-form norms: 2 sum mass * u_m(|r| t0) / r per level,
    extrapolated linearly in 1/r.  u_m depends on the moduli only, so one
    point represents each torus."""
    atoms = atoms_2d(phi_points)
    ys = []
    for r in levels:
        mean = 2 * sum(float(mass) * um_value(a, b, m, cap, (abs(r) * float(t0[0]), abs(r) * float(t0[1])))
                       for t0, mass in atoms)
        ys.append(mean / r)
    return linear_in_inverse_r(levels, ys)


# ---------------------------------------------------------------------------


def selfcheck() -> list[str]:
    """Compare the oracles with hand values; returns the list of mismatches."""
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append(f"{name}: got {got}, want {want}")

    cusp = [(2, 0), (0, 3)]
    axes = [(1, 0), (0, 1)]
    tri = [(4, 0), (1, 1), (0, 4)]
    # values of `lelong selftest`
    expect("newton(cusp)", newton_2d(cusp), 6)
    expect("newton(axes)", newton_2d(axes), 1)
    expect("newton(tri)", newton_2d(tri), 8)
    expect("covol(tri)", covol_2d(tri), 4)
    expect("generalized(mono, tri)", generalized_atoms_2d([(1, 1)], tri), 8)
    expect("tau(cusp, 1)", tau_nd(cusp, 1), 3)
    expect("tau(cusp, 2)", tau_nd(cusp, 2), 2)
    expect("directional(cusp, (1,1))", poly_order(cusp, (1, 1)), 2)
    edge = dict(atoms_2d(tri))
    expect("atom (-1/4,-3/4)", edge.get((F(-1, 4), F(-3, 4))), 2)
    expect("simplex newton", simplex_newton((2, 3)), newton_2d(cusp))
    expect("simplex generalized", simplex_generalized([(1, 1)], (2, 3)),
           generalized_atoms_2d([(1, 1)], cusp))
    # both forms of the mixed covolume agree on convenient sets
    expect("mixed covolume forms", generalized_2d(cusp, tri), generalized_atoms_2d(cusp, tri))
    expect("generalized(S, S) = newton", generalized_2d(tri, tri), newton_2d(tri))
    expect("homogeneity", newton_2d([(3 * x, 3 * y) for x, y in tri]), 9 * newton_2d(tri))
    # 3-D tau on z1^2 + z2^3 + z3^5: restriction to z1 = 0 is z2^3 + z3^5
    expect("tau3", tau_nd([(2, 0, 0), (0, 3, 0), (0, 0, 5)], 1), 15)
    # Jensen at equal moduli: mean log|z1^2 + z2^3| at t = (-3, -2) is -6
    expect("jensen", jensen_mean([(1, (2, 0)), (1, (0, 3))], (-3.0, -2.0)), -6.0)
    # Bergman closed form: max(2 log|z1|, 3 log|z2|), m = 1, alpha = (1, 1)
    expect("bergman norm", bergman_norm_exact(2, 3, 1, (1, 1)), F(5, 32))
    # log|z| in one variable embedded as max(log|z1|, log|z2|): (0,0) in at m = 1, out at m = 2
    expect("howald m=1", howald_admissible(1, 1, 1, (0, 0)), True)
    expect("howald m=2", howald_admissible(1, 1, 2, (0, 0)), False)
    expect("constant norm", bergman_norm_exact(1, 1, 1, (0, 0)), F(1, 2))
    return bad


if __name__ == "__main__":
    problems = selfcheck()
    for line in problems:
        print(line)
    print("oracle selfcheck:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
