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
polyhedron).  The cone fan is memoized per generator set
(`poly_geom._pl_cones`), and the integer forms of its rays are built
once per call for all levels m; each level is then one array pass over
all (cap + 1)^n exponents, which tests every ray and sums the cone terms
as one unreduced num / den per admissible alpha.  The pass runs in int64
where a bound taken in Python ints before it proves |num| and den at
most 2^53, so the float64 num / den is Python's correctly rounded int
division, and on Python ints (dtype object) otherwise.  On a 2-core Xeon
a 2-D basis takes about 0.15 ms at cap 8, 2 ms at cap 64 and 0.06 s at
cap 255 in int64, and a 3-D one 0.06 s at cap 30 on Python ints.  Only
the other weights, in one or two variables, are integrated numerically,
on a per-axis shell decomposition, for every exponent at once: one
log-sum-exp per axis over the node grid.  There a monomial is excluded
when the shell contributions stop decaying (the integral diverges at
the origin).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .exactgeom import Vec, _integer_row
from .indicator_calculus import _check_dimensions, _density, _tau
from .numeric_oracle import DEFAULT_SCHEDULE, RadialSchedule, _swept_estimate
from .poly_geom import ExponentSet, _measure, _pl_cones
from .weights import _generators, _log_rows, _peak_shift, _point_sums, dimension_of
from .weights import eval_expr, is_multicircled, torus_values

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

    `exponents` (one row per entry, built from the entries unless given)
    and `neg_log_c` (-log c_alpha) hold the entries as arrays, so
    evaluation is one broadcast log-sum-exp.
    """

    m: int
    degree_cap: int
    entries: tuple[tuple[tuple[int, ...], float], ...]
    dimension: int
    exponents: np.ndarray | None = field(default=None, repr=False, compare=False)
    neg_log_c: np.ndarray = field(init=False, repr=False, compare=False)

    theta_dependent = False  # value depends on coordinate moduli only

    def __post_init__(self):
        if self.exponents is None:
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


def _bases(u, m_list: Sequence[int], degree_cap: int | None, n: int, walk=None):
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
    gens = _pl_generators(u, n, walk)
    if gens is None and n not in (1, 2):
        raise ValueError("basis construction supports dimensions 1 and 2 only")
    forms = None if gens is None else _ray_forms(_pl_cones(gens, n))
    for m in m_list:
        cap = degree_cap
        if cap is None:
            cap = DEFAULT_DEGREE_CAP[n] if gens is None else _pl_degree_cap(gens, m, n)
        if (cap + 1) ** n > MAX_BASIS_EXPONENTS:
            raise ValueError(f"{cap + 1}^{n} basis exponents exceed the limit of {MAX_BASIS_EXPONENTS}")
        if forms is None:
            entries, exponents = _quadrature_norms(u, m, cap, n), None
        else:
            alphas, num, den = _exact_norms(forms, m, cap, n)
            entries = zip(zip(*alphas.T.tolist()), ((2.0 * math.pi) ** n * (num / den)).tolist())
            exponents = np.ascontiguousarray(alphas, dtype=float)
        yield m, ApproxBasis(m=m, degree_cap=cap, entries=tuple(entries), dimension=n, exponents=exponents)


def _pl_generators(u, n: int, walk=None) -> list[Vec] | None:
    """The J with u = max_J <J, log|z|>, or None when u has no such form; walk: `_generators(u, n)` if taken."""
    try:
        gens, exact = walk or _generators(u, n)
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


def _ray_forms(cones) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """(W, a, b, dets): the integer forms of the fan's rays, cone by cone (n each), for every level m.

    With d = 2 alpha + 2 - 2 m J, a ray's -<d, v> is <W_v, alpha> + m a_v + b_v
    with W_v = -2 v, a_v = 2 <J, v> and b_v = -2 sum(v).  These are integers:
    a ray of J's cone is the t-part of a double-description ray (v, lam)
    active on J's row, so <J, v> = -lam.
    """
    W, a, b = [], [], []
    for rays, J, _ in cones:
        row, scale = _integer_row(J)
        for v in rays:
            W.append([-2 * x for x in v])
            a.append(2 * sum(map(int.__mul__, row, v)) // scale)
            b.append(-2 * sum(v))
    return W, a, b, [det for _, _, det in cones]


def _exact_norms(forms, m: int, degree_cap: int, n: int):
    """(alphas, num, den): c_alpha / (2 pi)^n = num / den for each admissible row of alphas.

    One pass over all (cap + 1)^n exponents: E = W alpha + (m a + b) holds
    every ray's -<d, v>, alpha is admissible when all its E > 0, and the
    cone terms |det V| / prod(-<d, v>) add up as one unreduced num / den.
    The pass runs in int64 where a bound taken in Python ints first proves
    |E|, num and den <= 2^53, so num / den rounds as Python's int division
    does, and on Python ints (dtype object) otherwise.
    """
    W, a, b, dets = forms
    const = [m * x + y for x, y in zip(a, b)]
    top = [abs(c) + degree_cap * sum(map(abs, w)) for c, w in zip(const, W)]  # bounds |E| on the box of alphas
    # an admissible alpha has every E >= 1, so num and den are at most prod(top) * sum(dets)
    dtype = np.int64 if math.prod(max(t, 1) for t in top) * sum(dets) <= 2**53 else object
    alphas = np.indices((degree_cap + 1,) * n, dtype=dtype).reshape(n, -1)
    E = np.array(W, dtype=dtype) @ alphas + np.array(const, dtype=dtype)[:, None]
    keep = (E > 0).all(axis=0)
    num, den = 0, 1
    for det, denom in zip(dets, E[:, keep].reshape(len(dets), n, -1).prod(axis=1)):
        num, den = num * denom + det * den, den * denom
    return alphas[:, keep].T, num, den


def _quadrature_norms(u, m: int, degree_cap: int, n: int):
    """(alpha, c_alpha) for the admissible alpha, by per-axis shell quadrature.

    The log-radius of each axis runs over 48 shells of width 1 with 32
    Gauss-Legendre nodes in one variable, and over 36 shells with 16
    nodes in two.  The integrand factors as prod_k e^((2 alpha_k + 2) s_k)
    times e^(-2 m u(s)), so the log of its sum over the first S shells of
    every axis is, for all exponents at once, one log-sum-exp over axis 1
    for each (alpha_1, s_2), then one over axis 2 for each (alpha_1,
    alpha_2); each slice is shifted by its own maximum, so no term that
    matters underflows.  The sums are taken at S = all shells, 6 fewer and
    12 fewer.  A monomial is excluded as divergent when the last 6 shells
    still carry more than 1e-13 of the total and at least 0.9 times the 6
    shells before them: the integrand fails to decay toward the origin.
    Blocks of shells, rather than single shells, absorb the periodic
    oscillation that rational-slope kinks of the weight imprint on the
    shells.  The alpha_1 go through in chunks of about 2^16 terms (one at a
    time in two variables), which keeps the arrays small.
    """
    shells, nodes = (48, 32) if n == 1 else (36, 16)
    x, wq = np.polynomial.legendre.leggauss(nodes)
    s = (-np.arange(1.0, shells + 1.0)[:, None] + (x + 1.0) / 2.0).ravel()
    chi = torus_values(u, (s,) if n == 1 else (s[:, None], s[None, :]), (0.0,) * n)
    minus_2mu = -2.0 * m * np.broadcast_to(np.asarray(chi, dtype=float), (len(s),) * n)
    # log of w_i e^((2 alpha + 2) s_i) is log_w + powers * s, one row per alpha
    log_w = np.log(np.tile(wq / 2.0, shells))
    powers = 2.0 * np.arange(degree_cap + 1.0)[:, None] + 2.0
    log_e2 = (log_w + powers * s).T if n == 2 else None  # [j, alpha_2], for the sums over axis 2
    ends = [(shells - 12) * nodes, (shells - 6) * nodes, shells * nodes]
    rows = max(1, (1 << 16) // minus_2mu.size)
    parts = []
    for lo in range(0, degree_cap + 1, rows):
        # [i, alpha_1, (j)]; summed over the nodes i of axis 1 in blocks of
        # shells, and the block sums then summed in running order
        g = (log_w + powers[lo : lo + rows] * s).T.reshape(len(s), -1, *(1,) * (n - 1)) + minus_2mu[:, None]
        part = np.logaddexp.accumulate([_log_sum_exp(b) for b in np.split(g, ends[:-1])])
        if n == 2:
            part = np.stack([_log_sum_exp(p.T[:end, :, None] + log_e2[:end, None]) for p, end in zip(part, ends)])
        parts.append(part.reshape(3, -1))
    l_12, l_6, l_all = np.concatenate(parts, axis=1)
    last = -np.expm1(l_6 - l_all)
    prev = np.exp(l_6 - l_all) - np.exp(l_12 - l_all)
    keep = ~((last > 1e-13) & (last >= 0.9 * prev))
    alphas = np.argwhere(keep.reshape((degree_cap + 1,) * n)).tolist()
    norms = ((2.0 * math.pi) ** n * np.exp(l_all[keep])).tolist()
    return list(zip(map(tuple, alphas), norms))


def _log_sum_exp(g: np.ndarray) -> np.ndarray:
    """log sum of e^g over the leading axis, each slice shifted by its own maximum."""
    peak, w = _peak_shift(g)
    return peak + np.log(w.sum(axis=0))


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
    walk = _generators(u, n)  # one walk of u for its indicator and its basis
    S_u = ExponentSet.of(walk[0], n)
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
    for m, basis in _bases(u, m_list, degree_cap, n, walk):
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
