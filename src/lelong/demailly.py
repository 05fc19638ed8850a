"""Bergman-kernel approximation of multicircled weights on the polydisk.

For a torus-invariant weight u the monomials z^alpha are pairwise
orthogonal in the weighted space {f holomorphic : integral of |f|^2
exp(-2 m u) < infinity}, so the level-m approximant is determined by the
squared norms c_alpha of the admissible monomials alone:

    u_m(z) = (1/2m) log sum_alpha |z^alpha|^2 / c_alpha.

In logarithmic radial coordinates s_k = log|z_k| the norm is

    c_alpha = (2 pi)^n integral over s <= 0 of exp(<2 alpha + 2, s> - 2 m u(s)) ds.

Norms are exact for homogeneous piecewise-linear weights u = max_J <J, s>
(coordinate logs, rational scalings, maxima and unimodular monomials):
on each linearity cone of u the integrand is the exponential of a linear
form, so c_alpha is a rational multiple of (2 pi)^n, and the integral
diverges exactly when that form is nonnegative on a ray of the cone fan
(Howald's criterion, alpha + 1 outside the interior of m times the Newton
polyhedron).  Only the other weights are integrated numerically, on a
per-axis shell decomposition; there a monomial is excluded when the
shell contributions stop decaying (the integral diverges at the origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .exactgeom import Vec
from .indicator_calculus import generalized_lelong_exact, tau
from .numeric_oracle import (
    DEFAULT_SCHEDULE,
    RadialSchedule,
    generalized_lelong_numeric,
)
from .poly_geom import ExponentSet
from .weights import CoordLog, MaxOf, PolyLog, Scale
from .weights import dimension_of, eval_expr, indicator_support, is_multicircled, torus_values

__all__ = [
    "ApproxBasis",
    "basis_norms",
    "um_eval",
    "sandwich_check",
    "lelong_bounds_check",
    "SandwichReport",
    "LelongBoundsReport",
]

DEFAULT_DEGREE_CAP = {1: 12, 2: 8}


@dataclass(frozen=True)
class ApproxBasis:
    """Admissible monomial exponents with their weighted squared norms.

    `exponents` (one row per entry) and `neg_log_c` (-log c_alpha) hold
    the entries as arrays, so evaluation is one broadcast log-sum-exp.
    """

    m: int
    degree_cap: int
    entries: tuple[tuple[tuple[int, ...], float], ...]
    u_ref: object
    dimension: int
    exponents: np.ndarray = field(init=False, repr=False, compare=False)
    neg_log_c: np.ndarray = field(init=False, repr=False, compare=False)

    theta_dependent = False  # value depends on coordinate moduli only

    def __post_init__(self):
        alphas = np.array([a for a, _ in self.entries], dtype=float)
        object.__setattr__(self, "exponents", alphas.reshape(len(self.entries), self.dimension))
        object.__setattr__(self, "neg_log_c", np.array([-math.log(c) for _, c in self.entries]))

    def _log_terms(self, t) -> np.ndarray:
        """log(|z^alpha|^2 / c_alpha) at log-moduli t, one entry per leading index."""
        ts = [np.asarray(x, dtype=float) for x in t]
        lead = (-1,) + (1,) * len(np.broadcast_shapes(*(x.shape for x in ts)))
        g = 0.0
        with np.errstate(invalid="ignore"):
            for k, tk in enumerate(ts):
                a = self.exponents[:, k].reshape(lead)
                g = g + np.where(a != 0, 2.0 * a * tk, 0.0)  # so that 0 * (-inf) never appears
        return self.neg_log_c.reshape(lead) + g

    def cap_contribution(self, t) -> float:
        """Share of the degree-cap entries in the sum at log-radii t.

        The cap truncates the true basis; probes are trustworthy where
        this fraction is negligible (default radii keep it < 1e-10).
        """
        if not self.entries:
            return 0.0
        g = self._log_terms(t)
        w = np.exp(g - g.max())
        at_cap = self.exponents.max(axis=1) == self.degree_cap
        return float(w[at_cap].sum() / w.sum())

    def torus_values(self, t, theta):
        g = self._log_terms(t)
        peak = g.max(axis=0, initial=-np.inf)
        shift = np.where(peak == -np.inf, 0.0, peak)
        with np.errstate(divide="ignore"):
            return (shift + np.log(np.exp(g - shift).sum(axis=0))) / (2.0 * self.m)


def um_eval(basis: ApproxBasis, z: Sequence[complex]) -> float:
    """Value of the level-m approximant at z, computed in log space."""
    return eval_expr(basis, z)


def basis_norms(u, m: int, degree_cap: int | None = None, dim: int | None = None) -> ApproxBasis:
    """Squared norms c_alpha = (2 pi)^n integral of prod r_k^(2 alpha_k + 1) exp(-2 m u).

    Homogeneous piecewise-linear weights get exact norms and an exact
    divergence test; every other weight goes through the shell
    quadrature.
    Without a degree_cap a piecewise-linear weight keeps every exponent
    up to max(DEFAULT_DEGREE_CAP[n], 2 ceil(m p)), p the largest axis
    intercept of its Newton polyhedron, so that the least admissible
    pure power of each coordinate is in the basis.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError("degree_cap must be nonnegative")
    if not is_multicircled(u):
        raise ValueError("basis norms need a torus-invariant weight")
    n = dim if dim is not None else dimension_of(u)
    if n not in (1, 2):
        raise ValueError("basis construction supports dimensions 1 and 2 only")
    if n < dimension_of(u):
        raise ValueError(f"weight references {dimension_of(u)} coordinates, basis has {n}")
    gens = _pl_generators(u, n)
    if gens is None:
        cap = DEFAULT_DEGREE_CAP[n] if degree_cap is None else degree_cap
        entries = _quadrature_norms(u, m, cap, n)
    else:
        cap = _pl_degree_cap(gens, m, n) if degree_cap is None else degree_cap
        entries = _exact_norms(gens, m, cap, n)
    return ApproxBasis(m=m, degree_cap=cap, entries=tuple(entries), u_ref=u, dimension=n)


def _pl_generators(u, n: int) -> list[Vec] | None:
    """The J with u = max_J <J, log|z|>, or None when u has no such form."""
    if isinstance(u, CoordLog):
        return [tuple(Fraction(int(k == u.axis - 1)) for k in range(n))]
    if isinstance(u, Scale) and isinstance(u.factor, Fraction):
        child = _pl_generators(u.child, n)
        return None if child is None else [tuple(u.factor * x for x in J) for J in child]
    if isinstance(u, MaxOf):
        out: list[Vec] = []
        for c in u.children:
            gens = _pl_generators(c, n)
            if gens is None:
                return None
            out.extend(gens)
        return out
    if isinstance(u, PolyLog) and len(u.terms) == 1 and abs(u.terms[0][0]) == 1:
        J = u.terms[0][1]
        return [tuple(Fraction(j) for j in J) + (Fraction(0),) * (n - len(J))]
    return None


def _pl_degree_cap(gens: list[Vec], m: int, n: int) -> int:
    """max(DEFAULT_DEGREE_CAP[n], 2 ceil(m p)), p the largest axis intercept.

    The intercept on axis k is the least pure generator p e_k; axes that
    carry none are ignored.
    """
    intercepts = [
        J[k] for J in gens for k in range(n)
        if J[k] > 0 and all(x == 0 for i, x in enumerate(J) if i != k)
    ]
    return max(DEFAULT_DEGREE_CAP[n], 2 * math.ceil(m * max(intercepts, default=0)))


def _pl_cones(gens: list[Vec], n: int) -> list[tuple[tuple[Vec, ...], Vec, Fraction]]:
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


def _exact_norms(gens: list[Vec], m: int, degree_cap: int, n: int):
    """(alpha, c_alpha) for the admissible alpha, summed exactly over the cones."""
    cones = _pl_cones(gens, n)
    entries = []
    for alpha in product(range(degree_cap + 1), repeat=n):
        c = _cone_integral(cones, m, alpha)
        if c is not None:
            entries.append((alpha, (2.0 * math.pi) ** n * float(c)))
    return entries


def _cone_integral(cones, m: int, alpha) -> Fraction | None:
    """c_alpha / (2 pi)^n, or None when the integral diverges.

    A cone with rays v_i and active generator J adds |det V| / prod(-<d, v_i>),
    d = 2 alpha + 2 - 2 m J; the integral diverges when some -<d, v_i> <= 0.
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


def _radial_log_grid(shells: int, width: float, nodes: int):
    """Gauss-Legendre nodes/weights on [-shells*width, 0], shell by shell."""
    x, wq = np.polynomial.legendre.leggauss(nodes)
    starts = -width * (np.arange(shells) + 1)
    s = np.concatenate([(st + width * (x + 1.0) / 2.0) for st in starts])
    wts = np.concatenate([np.full(nodes, 0.0) + wq * width / 2.0 for _ in starts])
    shell_id = np.repeat(np.arange(shells), nodes)
    return s, wts, shell_id


def _quadrature_norms(u, m: int, degree_cap: int, n: int):
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
        t_axes = (s,)
        grid_w = wts
        ring = shell_id
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


@dataclass(frozen=True)
class SandwichReport:
    passed: bool
    c1_by_m: dict = field(compare=False)
    c2_by_m: dict = field(compare=False)
    details: dict = field(compare=False)


def sandwich_check(u, m_list: Sequence[int], degree_cap: int | None = None,
                   sample_points: Sequence[Sequence[complex]] | None = None,
                   polyradii: Sequence[float] = (0.05,), dim: int | None = None) -> SandwichReport:
    """Fit the smallest constants bounding u_m between u and a local sup of u.

    Lower bound: u(z) - C1/m <= u_m(z).  Upper bound: u_m(z) bounded by
    the sup of u on the polydisk of radius r around z plus
    (1/m) log(C2 / prod r_k).  Passes when finite constants exist and
    stay within a factor of two across the levels in m_list.
    """
    n = dim if dim is not None else dimension_of(u)
    if sample_points is None:
        radii = [0.05, 0.15, 0.3, 0.5, 0.7, 0.85]
        if n == 1:
            sample_points = [(r,) for r in radii]
        else:
            sample_points = [(r1, r2) for r1 in radii for r2 in radii]
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
    passed = _stable(list(c1_by_m.values())) and _stable(list(c2_by_m.values()))
    return SandwichReport(
        passed=passed,
        c1_by_m=c1_by_m,
        c2_by_m=c2_by_m,
        details={"sample_points": list(map(tuple, sample_points)), "polyradii": tuple(polyradii)},
    )


def _stable(values: list[float], factor: float = 2.0, small: float = 0.5) -> bool:
    if not all(math.isfinite(v) for v in values):
        return False
    if all(abs(v) <= small for v in values):
        return True
    lo, hi = min(values), max(values)
    if lo <= 0:
        return hi <= small
    return hi / lo <= factor


@dataclass(frozen=True)
class LelongBoundsReport:
    passed: bool
    exact: Fraction
    tau_sum: Fraction
    estimates_by_m: dict = field(compare=False)
    details: dict = field(compare=False)


def lelong_bounds_check(u, S_phi: ExponentSet, m_list: Sequence[int],
                        degree_cap: int | None = None,
                        sched: RadialSchedule = DEFAULT_SCHEDULE,
                        tolerance: float = 1e-2, dim: int | None = None) -> LelongBoundsReport:
    """Check the two-sided approximation bound for the density against a weight.

    For each m the density of the approximant must not exceed the exact
    density of u, and the exact density must not exceed the approximant
    density plus (1/m) times the sum of the coordinate-slice densities
    of the weight, all within the stated tolerance.
    """
    n = dim if dim is not None else dimension_of(u)
    S_u = indicator_support(u, n)
    exact = generalized_lelong_exact(S_u, S_phi).value
    tau_sum = sum((tau(S_phi, k).value for k in range(1, n + 1)), Fraction(0))
    # for weights whose sublevel set touches a coordinate wall the slice
    # constants bound the correction only from above; flagged, not altered
    from .poly_geom import sublevel_vertices

    wall_touching = any(
        any(x == 0 for x in t0) for t0 in sublevel_vertices(S_phi).extreme_points
    )
    estimates = {}
    ok = True
    shallow = max(sched.levels)
    for m in m_list:
        basis = basis_norms(u, m, degree_cap, dim=n)
        est = generalized_lelong_numeric(S_phi, basis, sched)
        lower_ok = est.value <= float(exact) + tolerance
        upper_ok = float(exact) <= est.value + float(tau_sum) / m + tolerance
        estimates[m] = {
            "estimate": est.value,
            "stderr": est.stderr,
            "lower_ok": lower_ok,
            "upper_ok": upper_ok,
            "admissible": len(basis.entries),
            "cap_contribution": basis.cap_contribution((shallow,) * n),
        }
        ok = ok and lower_ok and upper_ok
    return LelongBoundsReport(
        passed=ok,
        exact=exact,
        tau_sum=tau_sum,
        estimates_by_m=estimates,
        details={
            "tolerance": tolerance,
            "schedule": sched,
            "tau_caveat_wall_touching_weight": wall_touching,
        },
    )
