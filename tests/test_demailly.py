import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lelong.demailly import (
    ApproxBasis,
    _quadrature_norms,
    basis_norms,
    lelong_bounds_check,
    sandwich_check,
    um_eval,
)
from lelong.numeric_oracle import RadialSchedule, classical_lelong_numeric, directional_lelong_numeric
from lelong.poly_geom import ExponentSet
from lelong.weights import CoordLog, MaxOf, NegPowLog, PolyLog, Scale, indicator_support

SCHED = RadialSchedule(levels=(-10.0, -20.0, -40.0), angular_nodes=64)


def half_log():
    return Scale(F(1, 2), CoordLog(1))


def log_z():
    return CoordLog(1)


def max_log():
    return MaxOf.of(CoordLog(1), CoordLog(2))


def admissible_alphas(basis):
    return sorted(a for a, _ in basis.entries)


# ---------------------------------------------------------------------------
# admissibility, one variable: closed-form radial integrals


def test_basis_half_log_m2():
    # integrand r^(2a+1-m): converges iff 2a + 2 - m > 0
    B = basis_norms(half_log(), 2, degree_cap=4, dim=1)
    assert admissible_alphas(B) == [(1,), (2,), (3,), (4,)]


def test_basis_log_m1_norms():
    # c_alpha = 2 pi / (2 alpha) for u = log|z|, m = 1
    B = basis_norms(log_z(), 1, degree_cap=3, dim=1)
    assert admissible_alphas(B) == [(1,), (2,), (3,)]
    for (a,), c in B.entries:
        assert c == pytest.approx(2 * math.pi / (2 * a), rel=1e-10)


def test_basis_minimal_degree_formula():
    # smallest admissible degree is the smallest integer with
    # 2a + 2 - 2 m p/q > 0
    for p, q in [(1, 2), (1, 1), (2, 3)]:
        u = Scale(F(p, q), CoordLog(1))
        for m in range(1, 9):
            B = basis_norms(u, m, degree_cap=14, dim=1)
            alphas = admissible_alphas(B)
            want = next(a for a in range(30) if 2 * a + 2 - 2 * m * p / q > 1e-12)
            assert alphas[0] == (want,), (p, q, m)
            # admissibility is upward closed in the degree
            assert alphas == [(a,) for a in range(want, 15)]


# ---------------------------------------------------------------------------
# admissibility, two variables


def test_basis_max_log_includes_constant_at_m1():
    # the norm integral of the constant against max(log|z1|, log|z2|) at
    # m = 1 is (2 pi)^2 * 1/2: finite, so (0,0) is admissible
    B = basis_norms(max_log(), 1, degree_cap=2, dim=2)
    alphas = admissible_alphas(B)
    assert (0, 0) in alphas
    c00 = dict(B.entries)[(0, 0)]
    assert c00 == pytest.approx((2 * math.pi) ** 2 * 0.5, rel=1e-2)
    assert alphas == [(i, j) for i in range(3) for j in range(3)]


def test_basis_max_log_excludes_constant_at_m2():
    B = basis_norms(max_log(), 2, degree_cap=2, dim=2)
    alphas = admissible_alphas(B)
    assert (0, 0) not in alphas
    assert all(sum(a) >= 1 for a in alphas)


def _sublevel_vertices_2d(gens):
    """Vertices of {t <= 0 : <J, t> <= -1 for every J}, by pairwise line cuts.

    Empty when a generator is zero (that constraint reads 0 <= -1).
    """
    cons = [(F(J[0]), F(J[1]), F(-1)) for J in gens] + [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    verts = set()
    for i, (a1, b1, c1) in enumerate(cons):
        for a2, b2, c2 in cons[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            t = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
            if all(a * t[0] + b * t[1] <= c for a, b, c in cons):
                verts.add(t)
    return verts


def _exact_admissible(gens, m, cap):
    """Howald's criterion: the alpha <= cap with alpha+1 strictly inside m
    times the Newton polyhedron, checked on the sublevel vertices."""
    verts = _sublevel_vertices_2d(gens)
    return {
        (i, j)
        for i in range(cap + 1)
        for j in range(cap + 1)
        if all((i + 1) * t1 + (j + 1) * t2 < -m for t1, t2 in verts)
    }


def _pl_weight(gens):
    """max_J <J, log|z|> as a weight tree over the node kinds with exact norms."""
    terms = []
    for J in gens:
        J = (F(J[0]), F(J[1]))
        if J[1] == 0 and J[0] > 0:
            terms.append(Scale(J[0], CoordLog(1)) if J[0] != 1 else CoordLog(1))
            continue
        q = math.lcm(J[0].denominator, J[1].denominator)
        mono = PolyLog.of([(1j, (int(J[0] * q), int(J[1] * q)))])
        terms.append(mono if q == 1 else Scale(F(1, q), mono))
    return terms[0] if len(terms) == 1 else MaxOf(tuple(terms))


def test_basis_matches_polyhedral_oracle_n2():
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)))
    for m in (1, 2, 3):
        B = basis_norms(u, m, degree_cap=6, dim=2)
        got = set(admissible_alphas(B))
        assert got == _exact_admissible([(2, 0), (0, 3)], m, 6), f"m={m}"


_generator = st.builds(
    lambda a, b, q: (F(a, q), F(b, q)),
    st.integers(0, 8), st.integers(0, 8), st.sampled_from((1, 2, 3)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gens=st.lists(_generator, min_size=1, max_size=5, unique=True), m=st.integers(1, 4))
@example(gens=[(F(0), F(0))], m=1)  # constant weight
@example(gens=[(F(1), F(0))], m=2)  # log|z1|: no generator on axis 2
@example(gens=[(F(1), F(1)), (F(0), F(2))], m=3)  # no pure generator on axis 1
@example(gens=[(F(3), F(0)), (F(1), F(1)), (F(0), F(3))], m=1)  # kink inside the quadrant
def test_exact_admissible_set_matches_howald(gens, m):
    B = basis_norms(_pl_weight(gens), m, degree_cap=6, dim=2)
    assert set(admissible_alphas(B)) == _exact_admissible(gens, m, 6)


def test_exact_norm_closed_form():
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)))
    c11 = dict(basis_norms(u, 1, degree_cap=2, dim=2).entries)[(1, 1)]
    assert c11 == pytest.approx((2 * math.pi) ** 2 * 5 / 32, rel=1e-12)


@pytest.mark.parametrize("gens, m, rel", [
    ([(2, 0), (0, 3)], 2, 1e-3),
    ([(2, 0), (0, 1)], 1, 1e-3),
    ([(1, 0)], 1, 1e-12),
    # a kink that cuts the shell cells diagonally costs the quadrature
    # accuracy: up to 3.4e-3 and 1.8e-3 relative for these two
    ([(1, 0), (0, 1)], 2, 5e-3),
    ([(F(3, 2), 0), (1, 1), (0, 2)], 2, 5e-3),
])
def test_exact_norms_match_shell_quadrature(gens, m, rel):
    u = _pl_weight(gens)
    exact = dict(basis_norms(u, m, degree_cap=5, dim=2).entries)
    quad = dict(_quadrature_norms(u, m, 5, 2))
    assert set(exact) == set(quad)
    for alpha, c in exact.items():
        assert quad[alpha] == pytest.approx(c, rel=rel), alpha


def test_quadrature_path_for_weights_without_pl_form():
    # -|log|z|| is log|z| on the unit disk, but as a sub-logarithmic node
    # it is integrated numerically; the closed form is 2 pi / (2 alpha + 2 - 2 m)
    B = basis_norms(NegPowLog(1, F(1)), 2, degree_cap=4, dim=1)
    assert admissible_alphas(B) == [(2,), (3,), (4,)]
    for (a,), c in B.entries:
        assert c == pytest.approx(2 * math.pi / (2 * a + 2 - 4), rel=1e-9)


def test_basis_admissibility_monotone_in_alpha():
    B = basis_norms(max_log(), 2, degree_cap=4, dim=2)
    admitted = set(admissible_alphas(B))
    for (i, j) in admitted:
        for step in ((1, 0), (0, 1)):
            up = (i + step[0], j + step[1])
            if up[0] <= 4 and up[1] <= 4:
                assert up in admitted


def test_basis_rejects_theta_dependent_weight():
    with pytest.raises(ValueError, match="torus-invariant"):
        basis_norms(PolyLog.of([(1, (1, 0)), (1, (0, 1))]), 1, dim=2)


# ---------------------------------------------------------------------------
# evaluation of the approximants


def test_um_slope_log_z():
    B = basis_norms(log_z(), 1, degree_cap=3, dim=1)
    est = classical_lelong_numeric(B, SCHED, dim=1)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_um_slope_half_log():
    for m, want in [(1, 0.0), (2, 0.5), (3, 1 / 3), (8, 0.5)]:
        B = basis_norms(half_log(), m, degree_cap=12, dim=1)
        est = classical_lelong_numeric(B, SCHED, dim=1)
        assert est.value == pytest.approx(want, abs=1e-9), m


def test_um_eval_against_direct_sum():
    B = basis_norms(log_z(), 1, degree_cap=3, dim=1)
    z = (0.3,)
    direct = 0.5 * math.log(
        sum(abs(z[0]) ** (2 * a) / c for (a,), c in B.entries)
    )
    assert um_eval(B, z) == pytest.approx(direct, abs=1e-12)


def _loop_log_terms(B, t):
    # the per-entry loop: log(|z^alpha|^2 / c_alpha), zero exponents skipped
    return [
        sum(2.0 * a * tk for a, tk in zip(alpha, t) if a) - math.log(c)
        for alpha, c in B.entries
    ]


def test_array_evaluation_matches_entry_loop():
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)))
    B = basis_norms(u, 3, degree_cap=8, dim=2)
    t1 = np.array([-0.5, -3.0, -40.0, -np.inf])
    t2 = np.array([[-0.2], [-7.0], [-np.inf]])
    vals = B.torus_values((t1, t2), (0.0, 0.0))
    assert vals.shape == (3, 4)
    for i, y in enumerate(t2[:, 0]):
        for j, x in enumerate(t1):
            gs = _loop_log_terms(B, (x, y))
            peak = max(gs)
            if peak == -math.inf:
                assert vals[i, j] == -math.inf
                continue
            want = (peak + math.log(math.fsum(math.exp(g - peak) for g in gs))) / 6
            assert vals[i, j] == pytest.approx(want, rel=1e-14, abs=1e-14)
    for t in [(-1.0, -1.0), (-10.0, -2.0), (-0.1, -0.1)]:
        gs = _loop_log_terms(B, t)
        peak = max(gs)
        share = math.fsum(
            math.exp(g - peak) for g, (alpha, _) in zip(gs, B.entries) if max(alpha) == 8
        ) / math.fsum(math.exp(g - peak) for g in gs)
        assert B.cap_contribution(t) == pytest.approx(share, rel=1e-12, abs=1e-300)


def test_um_empty_basis_is_bottom():
    B = ApproxBasis(m=1, degree_cap=0, entries=(), u_ref=None, dimension=1)
    assert um_eval(B, (0.5,)) == -math.inf


# ---------------------------------------------------------------------------
# sandwich report


def test_sandwich_log_z():
    rep = sandwich_check(log_z(), [1, 2, 4], degree_cap=12, dim=1)
    assert rep.passed
    assert all(math.isfinite(v) for v in rep.c1_by_m.values())


def test_sandwich_bounded_weight():
    rep = sandwich_check(PolyLog.of([(1, (0,))]), [1, 2, 4], degree_cap=12, dim=1)
    assert rep.passed


def test_sandwich_half_log_small_lower_constant():
    rep = sandwich_check(half_log(), [1], degree_cap=12, dim=1)
    assert rep.passed
    assert rep.c1_by_m[1] <= 1.0


# ---------------------------------------------------------------------------
# two-sided density bounds


def test_bounds_chain_one_variable():
    phi = ExponentSet.of([(1,)])
    for p, q in [(1, 2), (1, 1), (2, 3)]:
        u = Scale(F(p, q), CoordLog(1))
        rep = lelong_bounds_check(u, phi, [1, 2, 4, 8], degree_cap=14,
                                  sched=SCHED, tolerance=1e-6, dim=1)
        assert rep.passed, (p, q, rep.estimates_by_m)
        assert rep.exact == F(p, q)
        assert rep.tau_sum == 1


def test_bounds_chain_two_variables():
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)))
    phi = ExponentSet.of([(1, 0), (0, 1)])
    # probe radii deep enough that the degree cap is invisible even for
    # m = 4, whose minimal admissible degree sits one step below the cap
    deep = RadialSchedule(levels=(-15.0, -30.0, -60.0), angular_nodes=64)
    rep = lelong_bounds_check(u, phi, [1, 2, 4], degree_cap=8,
                              sched=deep, tolerance=1e-2, dim=2)
    assert rep.passed
    assert rep.exact == 2
    assert rep.tau_sum == 2
    assert rep.details["tau_caveat_wall_touching_weight"] is False
    for m, rec in rep.estimates_by_m.items():
        assert rec["estimate"] == pytest.approx(2 - 1 / m, abs=1e-2)
        # degree-cap truncation must be invisible at the probe radii
        assert rec["cap_contribution"] < 1e-10


def test_bounds_flags_wall_touching_weight():
    u = Scale(F(1, 2), CoordLog(1))
    # sublevel set of this weight has extreme points on the t2 = 0 wall
    phi = ExponentSet.of([(1, 1), (2, 0), (0, 2)])
    rep = lelong_bounds_check(u, phi, [2], degree_cap=8, sched=SCHED,
                              tolerance=1e-2, dim=2)
    assert rep.details["tau_caveat_wall_touching_weight"] is False
    phi_wall = ExponentSet.of([(1, 1), (2, 0)])
    rep = lelong_bounds_check(u, phi_wall, [2], degree_cap=8, sched=SCHED,
                              tolerance=1e-2, dim=2)
    assert rep.details["tau_caveat_wall_touching_weight"] is True


def test_approximant_profile_dominated_by_weight_profile():
    # directional densities: nu(u_m, a) <= nu(u, a) <= nu(u_m, a) + |a|/m
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)))
    S = indicator_support(u, 2)
    for m in (1, 2, 4):
        B = basis_norms(u, m, degree_cap=8, dim=2)
        for a in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]:
            est = directional_lelong_numeric(B, a, SCHED).value
            exact = float(S.min_support((F(a[0]), F(a[1]))))
            assert est <= exact + 1e-6
            assert exact <= est + sum(a) / m + 1e-6


# ---------------------------------------------------------------------------
# default degree cap


def test_default_degree_cap_covers_least_pure_powers():
    u = MaxOf.of(Scale(F(4), CoordLog(1)), Scale(F(5, 2), CoordLog(2)))
    # 2 ceil(m p) with p = 4, the larger axis intercept
    assert basis_norms(u, 4, dim=2).degree_cap == 32
    assert basis_norms(u, 1, dim=2).degree_cap == 8
    assert basis_norms(u, 4, degree_cap=8, dim=2).degree_cap == 8
    # axes without a pure generator do not count
    assert basis_norms(_pl_weight([(3, 3)]), 4, dim=2).degree_cap == 8
    assert basis_norms(Scale(F(7), CoordLog(1)), 2, dim=1).degree_cap == 28


def test_default_cap_bounds_check_steep_weight():
    u = MaxOf.of(Scale(F(4), CoordLog(1)), Scale(F(5, 2), CoordLog(2)))
    phi = ExponentSet.of([(0, 4), (2, 1), (4, 1), (5, 0)])
    rep = lelong_bounds_check(u, phi, [4], dim=2)
    assert rep.passed, rep.estimates_by_m
    assert rep.exact == 9
    assert rep.estimates_by_m[4]["cap_contribution"] < 1e-10


@pytest.mark.parametrize("a, b", [(2, 2), (3, 1), (4, 4)])
def test_default_cap_sandwich_steep_weights(a, b):
    u = MaxOf.of(Scale(F(a), CoordLog(1)), Scale(F(b), CoordLog(2)))
    rep = sandwich_check(u, [1, 2, 3, 4], dim=2)
    assert rep.passed, rep.c1_by_m
    wide = sandwich_check(u, [1, 2, 3, 4], degree_cap=40, dim=2)
    for m, c1 in rep.c1_by_m.items():
        assert c1 == pytest.approx(wide.c1_by_m[m], abs=1e-3), m
