"""Bergman-kernel approximation of multicircled weights on the polydisk.

For a torus-invariant weight u the monomials z^alpha are pairwise
orthogonal in the weighted space {f holomorphic : integral of |f|^2
exp(-2 m u) < infinity}, so the level-m approximant is determined by the
squared norms c_alpha of the admissible monomials alone:

    u_m(z) = (1/2m) log sum_alpha |z^alpha|^2 / c_alpha.

In logarithmic radial coordinates s_k = log|z_k| the norm is

    c_alpha = (2 pi)^n integral over s <= 0 of exp(<2 alpha + 2, s> - 2 m u(s)) ds.

Norms are exact for homogeneous piecewise-linear weights u = max_J <J, s>
(coordinate logs, scalings, whose float factors are exact dyadic
rationals, maxima and unimodular monomials) in every dimension.  The
linearity cones of u are those of the double-description pass over its
Newton diagram; on each the integrand is the exponential of a linear
form, so c_alpha is a rational multiple of (2 pi)^n, and the integral
diverges exactly when that form is nonnegative on a ray of the cone fan
(Howald's criterion, alpha + 1 outside the interior of m times the Newton
polyhedron).  The cone terms are summed in integers, with one rational
per admissible alpha, and the cones are built once per call for all
levels m.  Only the other weights, in one or two variables, are
integrated numerically, on a per-axis shell decomposition; there a
monomial is excluded when the shell contributions stop decaying (the
integral diverges at the origin).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .exactgeom import Vec, _bareiss, _fan, dot
from .indicator_calculus import _check_dimensions, _density, _tau
from .numeric_oracle import DEFAULT_SCHEDULE, RadialSchedule, _swept_estimate
from .poly_geom import ExponentSet, _diagram, _measure
from .weights import _generators, _log_rows, _peak_shift, _point_sums, dimension_of
from .weights import eval_expr, indicator_support, is_multicircled, torus_values

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
MAX_BASIS_EXPONENTS = 2**16  # also bounds the default sample points of sandwich_check


@dataclass(frozen=True)
class ApproxBasis:
    """Admissible monomial exponents with their weighted squared norms.

    `exponents` (one row per entry) and `neg_log_c` (-log c_alpha) hold
    the entries as arrays, so evaluation is one broadcast log-sum-exp.
    """

    m: int
    degree_cap: int
    entries: tuple[tuple[tuple[int, ...], float], ...]
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
        return _log_rows(self.neg_log_c, 2.0 * self.exponents, t)

    def cap_contribution(self, t) -> float:
        """Share of the degree-cap entries in the sum at the point t of log-radii.

        The cap truncates the true basis; probes are trustworthy where
        this fraction is negligible (default radii keep it < 1e-10).  It
        is 0 where the sum is empty: for an empty basis, or where every
        entry vanishes.
        """
        w = _peak_shift(self._log_terms(t))[1]
        at_cap = self.exponents.max(axis=1) == self.degree_cap
        total = w.sum()
        return float(w[at_cap].sum() / total) if total else 0.0

    def torus_values(self, t, theta):
        peak, w = _peak_shift(self._log_terms(t))
        with np.errstate(divide="ignore"):
            return (peak + np.log(_point_sums(w))) / (2.0 * self.m)


def um_eval(basis: ApproxBasis, z: Sequence[complex]) -> float:
    """Value of the level-m approximant at z, computed in log space."""
    return eval_expr(basis, z)


def basis_norms(u, m: int, degree_cap: int | None = None, dim: int | None = None) -> ApproxBasis:
    """Squared norms c_alpha = (2 pi)^n integral of prod r_k^(2 alpha_k + 1) exp(-2 m u).

    Homogeneous piecewise-linear weights get exact norms and an exact
    divergence test in any dimension; every other weight goes through the
    shell quadrature, in dimensions 1 and 2.
    Without a degree_cap a piecewise-linear weight keeps every exponent
    up to max(DEFAULT_DEGREE_CAP[min(n, 2)], 2 ceil(m p)), p the largest axis
    intercept of its Newton polyhedron, so that the least admissible
    pure power of each coordinate is in the basis.  A basis of more than
    MAX_BASIS_EXPONENTS candidate exponents, (cap + 1)^n, raises
    ValueError before any work.
    """
    return next(_bases(u, [m], degree_cap, dim if dim is not None else dimension_of(u)))[1]


def _bases(u, m_list: Sequence[int], degree_cap: int | None, n: int):
    """Yield (m, basis_norms(u, m, degree_cap, dim=n)) for each m; checks and cones once per list."""
    if not m_list:
        raise ValueError("m_list must not be empty")
    if any(m < 1 for m in m_list):
        raise ValueError("m must be a positive integer")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError("degree_cap must be nonnegative")
    if not is_multicircled(u):
        raise ValueError("basis norms need a torus-invariant weight")
    if n < dimension_of(u):
        raise ValueError(f"weight references {dimension_of(u)} coordinates, basis has {n}")
    gens = _pl_generators(u, n)
    if gens is None and n not in (1, 2):
        raise ValueError("basis construction supports dimensions 1 and 2 only")
    cones = None if gens is None else _pl_cones(gens, n)
    for m in m_list:
        cap = degree_cap
        if cap is None:
            cap = DEFAULT_DEGREE_CAP[n] if gens is None else _pl_degree_cap(gens, m, n)
        if (cap + 1) ** n > MAX_BASIS_EXPONENTS:
            raise ValueError(f"{cap + 1}^{n} basis exponents exceed the limit of {MAX_BASIS_EXPONENTS}")
        if cones is None:
            entries = _quadrature_norms(u, m, cap, n)
        else:
            entries = [(a, (2.0 * math.pi) ** n * (num / den)) for a, num, den in _exact_norms(cones, m, cap, n)]
        yield m, ApproxBasis(m=m, degree_cap=cap, entries=tuple(entries), dimension=n)


def _pl_generators(u, n: int) -> list[Vec] | None:
    """The J with u = max_J <J, log|z|>, or None when u has no such form."""
    try:
        gens, exact = _generators(u, n)
    except (TypeError, ValueError):
        return None
    return gens if exact else None


def _pl_degree_cap(gens: list[Vec], m: int, n: int) -> int:
    """max(DEFAULT_DEGREE_CAP[min(n, 2)], 2 ceil(m p)), p the largest axis intercept.

    The intercept on axis k is the least pure generator p e_k; axes that
    carry none are ignored.
    """
    intercepts = [max(J) for J in gens if sum(x > 0 for x in J) == 1]
    return max(DEFAULT_DEGREE_CAP[min(n, 2)], 2 * math.ceil(m * max(intercepts, default=0)))


def _pl_cones(gens: list[Vec], n: int) -> list[tuple[list[tuple[int, ...]], Vec, int]]:
    """Simplicial cones covering s <= 0 on each of which max_J <J, s> is linear.

    Returns (rays, J, |det rays|) with J the generator active on the cone.
    The linearity cone of each hull vertex J and its extreme rays come
    from the double-description pass of `poly_geom._diagram`.  The cut of
    the cone at sum(s) = -1 is triangulated, and each simplex keeps the
    primitive integer rays through its vertices.  The cut points are
    scaled by L, the lcm of the -sum(v), to the integer points
    v * (L / -sum(v)), and triangulated at that scale.  A zero generator
    (u = 0 on s <= 0) has the row lam <= 0, which leaves the orthant as
    the one cone.
    """
    cones = []
    for J, rays in _diagram(sorted(set(gens)), n)[1]:
        scale = math.lcm(*(-sum(v) for v in rays))
        by_cut = {tuple(x * (scale // -sum(v)) for x in v): v for v in rays}
        for simplex in _fan(list(by_cut), scale):
            V = [by_cut[p] for p in simplex]
            cones.append((V, J, abs(_bareiss([list(v) for v in V])[2])))
    return cones


def _exact_norms(cones, m: int, degree_cap: int, n: int):
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
    (1/m) log(C2 / prod r_k); for a multicircled u that sup is u at the
    bumped point |z_k| + r.  Passes when finite constants exist and stay
    within a factor of two across the levels in m_list.

    The default sample points are the 6^n grid of moduli 0.05 ... 0.85,
    limited like a basis and refused after the bases are built.  Given
    points must have n coordinates and lie in the open unit polydisk,
    radii must be positive, and some bumped point must stay inside; these
    errors come before any basis work.  u is evaluated twice, on all
    sample points and on all bumped points, and each approximant once,
    summing each point's terms as at a single point.  `details` counts
    the points and the (point, radius) pairs that fit.
    """
    n = dim if dim is not None else dimension_of(u)
    if sample_points is None and 6**n <= MAX_BASIS_EXPONENTS:
        sample_points = list(product([0.05, 0.15, 0.3, 0.5, 0.7, 0.85], repeat=n))
    geometry = None if sample_points is None else _sample_geometry(sample_points, polyradii, n)
    bases = list(_bases(u, m_list, degree_cap, n))
    if geometry is None:
        raise ValueError(f"6^{n} default sample points exceed the limit of {MAX_BASIS_EXPONENTS}")
    t, theta, t_up, owner, log_r = geometry
    points, pairs = len(sample_points), len(owner)
    u_at = np.broadcast_to(torus_values(u, t, theta), (points,))
    sup_u = np.broadcast_to(torus_values(u, t_up, (0.0,) * n), (pairs,))
    finite = np.isfinite(u_at)
    c1_by_m = {}
    c2_by_m = {}
    for m, basis in bases:
        um = np.broadcast_to(basis.torus_values(t, theta), (points,))
        # Python's max, as in a per-point loop: a NaN term never wins
        c1_by_m[m] = max([0.0, *(m * (u_at[finite] - um[finite])).tolist()])
        c2_by_m[m] = math.exp(max([-math.inf, *(m * (um[owner] - sup_u) + log_r).tolist()]))
    passed = _stable(list(c1_by_m.values())) and _stable(list(c2_by_m.values()))
    return SandwichReport(
        passed=passed,
        c1_by_m=c1_by_m,
        c2_by_m=c2_by_m,
        details={"sample_points": list(map(tuple, sample_points)), "polyradii": tuple(polyradii),
                 "points": points, "upper_pairs": pairs},
    )


def _sample_geometry(sample_points, polyradii, n: int):
    """(t, theta, t_up, owner, log_r) of the sample points, as eval_expr takes them.

    t and theta hold one array per axis over the points.  For each
    (point, radius) pair whose bumped point abs(z_k) + r lies inside the
    unit polydisk, in point-major order, t_up holds the bumped
    log-moduli (one array per axis), owner the index of the point and
    log_r the value n log r.
    """
    if len(polyradii) == 0:
        raise ValueError("polyradii must not be empty")
    if not all(r > 0 for r in polyradii):
        raise ValueError("polyradii must be positive")
    if len(sample_points) == 0:
        raise ValueError("sample_points must not be empty")
    t, theta, t_up, owner, log_r = [], [], [], [], []
    for i, z in enumerate(sample_points):
        if len(z) != n:
            raise ValueError(f"sample point dimension mismatch: {len(z)} vs {n}")
        zs = [complex(zk) for zk in z]
        mods = [abs(zk) for zk in zs]
        if not all(x < 1 for x in mods):
            raise ValueError(f"sample point outside the unit polydisk: {tuple(z)}")
        t.append([math.log(x) if x > 0 else -math.inf for x in mods])
        theta.append([cmath.phase(zk) if x > 0 else 0.0 for zk, x in zip(zs, mods)])
        for r in polyradii:
            bumped = [x + r for x in mods]
            if all(b < 1 for b in bumped):
                t_up.append([math.log(b) for b in bumped])
                owner.append(i)
                log_r.append(n * math.log(r))
    if not owner:
        raise ValueError("no polyradius keeps a bumped sample point inside the unit polydisk")
    return _by_axis(t), _by_axis(theta), _by_axis(t_up), np.array(owner), np.array(log_r)


def _by_axis(rows: list[list[float]]) -> tuple[np.ndarray, ...]:
    """One array per axis from one row of coordinates per point."""
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


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
    of the weight, all within the stated tolerance.  One diagram of the
    weight gives all of these densities and the atoms of every sweep.
    """
    n = dim if dim is not None else dimension_of(u)
    S_u = indicator_support(u, n)
    _check_dimensions(S_u, S_phi)
    vertices, gm = _measure(S_phi)
    exact = _density(S_u, gm)
    tau_sum = sum((_tau(gm, k, n) for k in range(1, n + 1)), Fraction(0))
    # for weights whose sublevel set touches a coordinate wall the slice
    # constants bound the correction only from above; flagged, not altered
    wall_touching = any(any(x == 0 for x in t0) for t0 in vertices)
    estimates = {}
    ok = True
    shallow = max(sched.levels)
    for m, basis in _bases(u, m_list, degree_cap, n):
        est = _swept_estimate(gm, basis, sched)
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
