import cmath
import math
import sys
import time
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest
from exact_oracles import loop_quadrature_norms, sandwich_constants_per_point, solve
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
from lelong.indicator_calculus import generalized_lelong_exact, tau
from lelong.numeric_oracle import (
    NonPshStarProbeError,
    RadialSchedule,
    classical_lelong_numeric,
    directional_lelong_numeric,
    generalized_lelong_numeric,
)
from lelong.poly_geom import ExponentSet, sublevel_vertices
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


def _sublevel_vertices(gens, n):
    """Vertices of {t <= 0 : <J, t> <= -1 for every J}, by n-subset solves.

    Every n independent rows among the constraints meet in one point,
    kept when it satisfies them all.  Empty when a generator is zero
    (that constraint reads 0 <= -1).
    """
    cons = [(tuple(F(x) for x in J), F(-1)) for J in gens]
    cons += [(tuple(F(int(i == k)) for i in range(n)), F(0)) for k in range(n)]
    verts = set()
    for rows in combinations(cons, n):
        t = solve([a for a, _ in rows], [b for _, b in rows])
        if t is not None and all(sum(x * y for x, y in zip(a, t)) <= b for a, b in cons):
            verts.add(t)
    return verts


def _exact_admissible(gens, m, cap, n=2):
    """Howald's criterion: the alpha <= cap with alpha+1 strictly inside m
    times the Newton polyhedron, checked on the sublevel vertices."""
    verts = _sublevel_vertices(gens, n)
    return {
        alpha
        for alpha in product(range(cap + 1), repeat=n)
        if all(sum((a + 1) * x for a, x in zip(alpha, t)) < -m for t in verts)
    }


def _pl_weight(gens):
    """max_J <J, log|z|> as a weight tree over the node kinds with exact norms."""
    terms = []
    for J in gens:
        J = tuple(F(x) for x in J)
        if J[0] > 0 and not any(J[1:]):
            terms.append(Scale(J[0], CoordLog(1)) if J[0] != 1 else CoordLog(1))
            continue
        q = math.lcm(*(x.denominator for x in J))
        mono = PolyLog.of([(1j, tuple(int(x * q) for x in J))])
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


_generator_3d = st.builds(
    lambda a, b, c, q: (F(a, q), F(b, q), F(c, q)),
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.sampled_from((1, 2)),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gens=st.lists(_generator_3d, min_size=1, max_size=4, unique=True), m=st.integers(1, 3))
@example(gens=[(F(1), F(0), F(0))], m=2)  # log|z1|: no generator on axes 2 and 3
@example(gens=[(F(0), F(0), F(0)), (F(1), F(1), F(1))], m=1)  # constant weight
@example(gens=[(F(2), F(0), F(0)), (F(0), F(3, 2), F(0)), (F(0), F(0), F(3))], m=2)
@example(gens=[(F(3), F(0), F(0)), (F(1), F(1), F(1)), (F(0), F(3), F(0)), (F(0), F(0), F(3))], m=1)
def test_exact_admissible_set_matches_howald_3d(gens, m):
    B = basis_norms(_pl_weight(gens), m, degree_cap=4, dim=3)
    assert set(admissible_alphas(B)) == _exact_admissible(gens, m, 4, 3)


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


def _assert_matches_loop(u, m, cap, n):
    """The log-sum-exp norms against the per-exponent loop: same admissible set, same norms."""
    got = _quadrature_norms(u, m, cap, n)
    want = loop_quadrature_norms(u, m, cap, n)
    assert [a for a, _ in got] == [a for a, _ in want]
    for (alpha, c), (_, ref) in zip(got, want):
        if sys.float_info.min <= ref < math.inf:  # the loop's 0 or subnormal has no relative digits
            assert c == pytest.approx(ref, rel=1e-12), alpha
    return got


def _quadrature_weights(n):
    axis = st.integers(1, n)
    leaves = st.one_of(
        st.builds(NegPowLog, axis, st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)))),
        st.builds(CoordLog, axis),
        st.builds(lambda c, J: PolyLog.of([(c, J)]), st.sampled_from((2, 0.5, 3j, -1.5, 0.5 + 0.5j)),
                  st.tuples(*[st.integers(0, 3)] * n)),
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Scale, st.sampled_from((F(1, 2), F(3, 2), F(2), 0.75)), kids),
        st.lists(kids, min_size=2, max_size=3).map(lambda c: MaxOf(tuple(c))),
    ), max_leaves=4)


@st.composite
def _quadrature_cases(draw, n):
    m = draw(st.integers(1, 16))
    return draw(_quadrature_weights(n)), m, draw(st.integers(0, 2 * m + 2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_quadrature_cases(1))
def test_quadrature_matches_the_loop_1d(case):
    _assert_matches_loop(*case, 1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=_quadrature_cases(2))
@example(case=(MaxOf.of(NegPowLog(1, F(1, 2)), CoordLog(2)), 2, 6))  # the flat weight
@example(case=(PolyLog.of([(2, (0, 0))]), 3, 4))  # constant weight, all shells alike
def test_quadrature_matches_the_loop_2d(case):
    _assert_matches_loop(*case, 2)


@pytest.mark.parametrize("m, cap", [(12, 26), (16, 34)])
def test_quadrature_matches_the_loop_on_a_ridge(m, cap):
    # -2 m u = min(2 m |s1|, 3 m |s2|) has a diagonal ridge, where a sum
    # shifted by rows and columns rather than by slices underflows
    _assert_matches_loop(MaxOf.of(NegPowLog(1, F(1)), Scale(F(3, 2), CoordLog(2))), m, cap, 2)


@pytest.mark.parametrize("m, cap", [(8, 20), (32, 68)])
def test_quadrature_steep_weight_closed_form(m, cap):
    # -|log|z||: c_alpha = 2 pi / (2 alpha + 2 - 2 m), admissible from alpha = m;
    # a single shift over the whole grid overflows here
    entries = _assert_matches_loop(NegPowLog(1, F(1)), m, cap, 1)
    assert [a for (a,), _ in entries] == list(range(m, cap + 1))
    for (a,), c in entries:
        assert c == pytest.approx(2 * math.pi / (2 * a + 2 - 2 * m), rel=1e-12)


def test_sandwich_check_at_a_wide_cap_is_fast():
    # the per-exponent loop spent 5-10 ms on each of these 2 * 41^2 exponents
    start = time.perf_counter()
    rep = sandwich_check(MaxOf.of(NegPowLog(1, F(1, 2)), CoordLog(2)), [1, 2], degree_cap=40, dim=2)
    assert time.perf_counter() - start < 10.0
    assert rep.passed


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
    B = ApproxBasis(m=1, degree_cap=0, entries=(), dimension=1)
    assert um_eval(B, (0.5,)) == -math.inf


def test_empty_basis_sums_to_nothing():
    B = ApproxBasis(m=1, degree_cap=0, entries=(), dimension=2)
    t = (np.array([-0.5, -math.inf]), np.array([[-1.0], [-math.inf]]))
    assert np.all(B.torus_values(t, (0.0, 0.0)) == -math.inf)
    assert B.torus_values((-1.0, -2.0), (0.0, 0.0)) == -math.inf
    assert B.cap_contribution((-1.0, -2.0)) == 0.0


def test_basis_at_minus_infinity_log_moduli():
    # 3 log|z| at m = 1: c_alpha is finite for alpha >= 3 only, so every
    # entry vanishes at z = 0 and the sum there is empty
    B = basis_norms(Scale(F(3), CoordLog(1)), 1, degree_cap=5, dim=1)
    assert admissible_alphas(B) == [(3,), (4,), (5,)]
    assert B.torus_values((-math.inf,), (0.0,)) == -math.inf
    assert B.cap_contribution((-math.inf,)) == 0.0
    # on the axis z1 = 0 the entries free of z1 remain
    B = basis_norms(max_log(), 1, degree_cap=4, dim=2)
    t = (-math.inf, -2.0)
    gs = _loop_log_terms(B, t)
    peak = max(gs)
    kept = [math.exp(g - peak) for g in gs]
    assert B.torus_values(t, (0.0, 0.0)) == pytest.approx(
        (peak + math.log(math.fsum(kept))) / 2, rel=1e-14)
    at_cap = [x for x, (alpha, _) in zip(kept, B.entries) if max(alpha) == 4]
    assert 0 < B.cap_contribution(t) == pytest.approx(math.fsum(at_cap) / math.fsum(kept), rel=1e-12)


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


# ---------------------------------------------------------------------------
# one diagram of the weight and one cone fan of u per check


def _public_report(u, S_phi, m_list, cap, n):
    """The fields of a bounds report, each from the public function that defines it."""
    exact = generalized_lelong_exact(indicator_support(u, n), S_phi).value
    tau_sum = sum((tau(S_phi, k).value for k in range(1, n + 1)), F(0))
    wall = any(any(x == 0 for x in t0) for t0 in sublevel_vertices(S_phi).extreme_points)
    estimates = {}
    for m in m_list:
        basis = basis_norms(u, m, cap, dim=n)
        est = generalized_lelong_numeric(S_phi, basis, SCHED)
        estimates[m] = (est.value, est.stderr, len(basis.entries))
    return exact, tau_sum, wall, estimates


def _checked_report(u, S_phi, m_list, cap, n):
    rep = lelong_bounds_check(u, S_phi, m_list, degree_cap=cap, sched=SCHED, dim=n)
    estimates = {m: (r["estimate"], r["stderr"], r["admissible"]) for m, r in rep.estimates_by_m.items()}
    return rep.exact, rep.tau_sum, rep.details["tau_caveat_wall_touching_weight"], estimates


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, NonPshStarProbeError) as exc:
        return type(exc).__name__, str(exc)


def _assert_report_matches_public_functions(u_gens, phi, m_list, n):
    u = _pl_weight(u_gens)
    S_phi = ExponentSet.of(phi)
    cap = 6 if n == 2 else 3
    want = _outcome(_public_report, u, S_phi, m_list, cap, n)
    assert _outcome(_checked_report, u, S_phi, m_list, cap, n) == want


def _u_generators(n):
    point = st.builds(lambda xs, q: tuple(F(x, q) for x in xs),
                      st.lists(st.integers(0, 2), min_size=n, max_size=n), st.sampled_from((1, 2)))
    return st.lists(point.filter(any), min_size=1, max_size=3, unique=True)


def _phi_points(n):
    """Mostly convenient sets (a pure point on every axis), some arbitrary ones."""
    point = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any).map(tuple)
    axes = st.lists(st.integers(1, 4), min_size=n, max_size=n).map(
        lambda hs: [tuple(h * int(i == k) for i in range(n)) for k, h in enumerate(hs)])
    convenient = st.builds(lambda a, extra: a + extra, axes, st.lists(point, max_size=2))
    return st.one_of(convenient, convenient, st.lists(point, min_size=1, max_size=3))


_NON_CONVENIENT = [(1, 1)]  # sublevel vertices (-1, 0) and (0, -1), both of zero mass


@settings(max_examples=25, deadline=None, derandomize=True)
@given(u_gens=_u_generators(2), phi=_phi_points(2), m_list=st.lists(st.integers(1, 3), min_size=1, max_size=3))
@example(u_gens=[(F(2), F(0)), (F(0), F(3, 2))], phi=_NON_CONVENIENT, m_list=[1, 2])
@example(u_gens=[(F(1), F(0))], phi=[(1, 1), (2, 0)], m_list=[2])  # one wall vertex, of zero mass
@example(u_gens=[(F(3, 2), F(0)), (F(1, 2), F(1, 2)), (F(0), F(2))], phi=[(0, 3), (1, 1), (4, 0)],
         m_list=[1, 2, 3])
def test_bounds_report_matches_public_functions_2d(u_gens, phi, m_list):
    _assert_report_matches_public_functions(u_gens, phi, m_list, 2)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(u_gens=_u_generators(3), phi=_phi_points(3), m_list=st.lists(st.integers(1, 2), min_size=1, max_size=2))
@example(u_gens=[(F(2), F(0), F(0)), (F(0), F(3, 2), F(0)), (F(0), F(0), F(1))],
         phi=[(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)], m_list=[1, 2])
@example(u_gens=[(F(1), F(0), F(0)), (F(0), F(1), F(1))], phi=[(1, 1, 1)], m_list=[1])
def test_bounds_report_matches_public_functions_3d(u_gens, phi, m_list):
    _assert_report_matches_public_functions(u_gens, phi, m_list, 3)


def test_non_convenient_weight_is_flagged_from_zero_mass_vertices():
    # {(1, 1)} has no atom of positive mass, so the flag must come from
    # the vertices themselves
    rep = lelong_bounds_check(max_log(), ExponentSet.of(_NON_CONVENIENT), [1, 2], degree_cap=4,
                              sched=SCHED, dim=2)
    assert rep.details["tau_caveat_wall_touching_weight"] is True
    assert rep.exact == rep.tau_sum == 0
    assert [r["estimate"] for r in rep.estimates_by_m.values()] == [0.0, 0.0]


def test_bounds_check_builds_one_diagram_of_the_weight(monkeypatch):
    import lelong.poly_geom as poly_geom

    seen = []
    diagram = poly_geom._diagram

    def counting(points, n):
        seen.append(tuple(points))
        return diagram(points, n)

    # the cone fan of u, poly_geom._pl_cones, takes its diagram from there too
    monkeypatch.setattr(poly_geom, "_diagram", counting)
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3, 2), CoordLog(2)))
    phi = ExponentSet.of([(0, 3), (1, 1), (4, 0)])
    lelong_bounds_check(u, phi, [1, 2, 3, 4], degree_cap=6, sched=SCHED, dim=2)
    # one diagram of phi, and one of u for its cone fan
    assert seen.count(phi.points) == 1
    assert len(seen) == 2


def test_sandwich_check_builds_the_cones_once(monkeypatch):
    import lelong.demailly as demailly
    import lelong.poly_geom as poly_geom

    calls, builds = [], []
    pl_cones, diagram = poly_geom._pl_cones, poly_geom._diagram

    def counting(gens, n):
        calls.append(n)
        return pl_cones(gens, n)

    def building(points, n):
        builds.append(n)
        return diagram(points, n)

    monkeypatch.setattr(demailly, "_pl_cones", counting)
    monkeypatch.setattr(poly_geom, "_diagram", building)
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3, 2), CoordLog(2)))
    rep = sandwich_check(u, [1, 2, 3, 4], degree_cap=6, dim=2)
    assert calls == [2]
    calls.clear()
    for m in (1, 2, 3, 4):
        assert sandwich_check(u, [m], degree_cap=6, dim=2).c1_by_m[m] == rep.c1_by_m[m]
    assert calls == [2] * 4
    # one fan per call, and one diagram under them all: the fan is memoized
    assert builds == [2]


def _assert_matches_per_point(u, m_list, **kw):
    rep = sandwich_check(u, m_list, **kw)
    c1, c2 = sandwich_constants_per_point(u, m_list, **kw)
    assert rep.c1_by_m == c1
    assert rep.c2_by_m == c2
    return rep


def _sandwich_gens(n, top):
    point = st.builds(lambda xs, q: tuple(F(x, q) for x in xs),
                      st.lists(st.integers(0, top), min_size=n, max_size=n), st.sampled_from((1, 2, 3)))
    return st.lists(point, min_size=1, max_size=4, unique=True)


_M_LISTS = st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gens=_sandwich_gens(1, 8), m_list=_M_LISTS)
@example(gens=[(F(0),)], m_list=[1, 2])  # constant weight
@example(gens=[(F(3, 2),)], m_list=[1, 2, 3, 4])
def test_sandwich_constants_match_per_point_oracle_1d(gens, m_list):
    _assert_matches_per_point(_pl_weight(gens), m_list, dim=1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gens=_sandwich_gens(2, 4), m_list=_M_LISTS)
@example(gens=[(F(1), F(0))], m_list=[1, 2, 3, 4])  # log|z1|: no generator on axis 2
@example(gens=[(F(2), F(0)), (F(0), F(3, 2))], m_list=[1, 2, 3, 4])
@example(gens=[(F(3), F(0)), (F(1), F(1)), (F(0), F(3))], m_list=[1, 3])  # kink inside the quadrant
def test_sandwich_constants_match_per_point_oracle_2d(gens, m_list):
    _assert_matches_per_point(_pl_weight(gens), m_list, dim=2)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(gens=_sandwich_gens(3, 2), m_list=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
@example(gens=[(F(2), F(0), F(0)), (F(0), F(3, 2), F(0)), (F(0), F(0), F(3))], m_list=[1, 2])
@example(gens=[(F(0), F(0), F(0)), (F(1), F(1), F(1))], m_list=[1])  # constant weight
def test_sandwich_constants_match_per_point_oracle_3d(gens, m_list):
    _assert_matches_per_point(_pl_weight(gens), m_list, degree_cap=4, dim=3)


def test_sandwich_constants_match_per_point_oracle_quadrature():
    # a max tree with -|log|z1||, on the shell quadrature
    u = MaxOf.of(NegPowLog(1, F(1)), Scale(F(3, 2), CoordLog(2)))
    _assert_matches_per_point(u, [1, 2], degree_cap=6, dim=2)


def _assert_close_to_per_point(u, m_list, **kw):
    rep = sandwich_check(u, m_list, **kw)
    c1, c2 = sandwich_constants_per_point(u, m_list, **kw)
    for m in m_list:
        assert rep.c1_by_m[m] == pytest.approx(c1[m], rel=1e-12), m
        assert rep.c2_by_m[m] == pytest.approx(c2[m], rel=1e-12), m


@pytest.mark.parametrize("p", [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)])
def test_sandwich_fractional_powers_match_per_point_oracle_closely(p):
    # numpy's array power and its scalar power may round |log|z1||^p
    # differently in the last bit
    _assert_close_to_per_point(MaxOf.of(NegPowLog(1, p), log_z()), [1, 2, 3], degree_cap=6, dim=1)
    u = MaxOf.of(NegPowLog(1, p), Scale(F(3, 2), CoordLog(2)))
    _assert_close_to_per_point(u, [1, 2, 3], degree_cap=6, dim=2)


def test_sandwich_constants_match_per_point_oracle_edge_cases():
    # empty basis: u_m = -inf, so C1 = inf and C2 = 0
    rep = _assert_matches_per_point(log_z(), [1], degree_cap=0, dim=1)
    assert rep.c1_by_m == {1: math.inf} and rep.c2_by_m == {1: 0.0} and not rep.passed
    # real points, some with a zero coordinate (u = -inf there, no C1 term)
    points = [(0.0, 0.5), (0.3, 0.0), (0.2, 0.4), (-0.5, 0.25), (0.7, -0.1)]
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3, 2), CoordLog(2)))
    _assert_matches_per_point(u, [1, 2, 3], degree_cap=6, sample_points=points, dim=2)
    _assert_matches_per_point(_pl_weight([(F(1), F(1)), (F(0), F(2))]), [1, 2], degree_cap=6,
                              sample_points=[(0.0, 0.5), (0.2, 0.4), (0.6, 0.1)], dim=2)
    # several radii, some bumped points skipped
    rep = _assert_matches_per_point(u, [1, 2], degree_cap=6, polyradii=(0.05, 0.2, 0.6), dim=2)
    assert rep.details["points"] == 36
    assert rep.details["upper_pairs"] == 36 + 25 + 9


def test_sandwich_complex_points_match_per_point_oracle_closely():
    # the phase of a complex point enters a monomial's modulus; numpy's
    # scalar and array complex products may round it differently
    u = _pl_weight([(F(2), F(1)), (F(0), F(3, 2))])
    points = [(0.3 * cmath.exp(0.7j), 0.5j), (-0.2 + 0.1j, 0.4), (0.6j, -0.3 - 0.3j)]
    _assert_close_to_per_point(u, [1, 2, 3], degree_cap=6, sample_points=points, dim=2)


def test_sandwich_check_evaluates_the_weight_twice(monkeypatch):
    import lelong.demailly as demailly

    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3, 2), CoordLog(2)))
    calls = []
    evaluate = demailly.torus_values

    def counting(w, t, theta):
        calls.append(w is u)
        return evaluate(w, t, theta)

    monkeypatch.setattr(demailly, "torus_values", counting)
    for m_list, points in (([1, 2, 3, 4], None), ([1], None), ([1, 2], [(0.5, 0.5), (0.1, 0.2), (0.3, 0.9)])):
        calls.clear()
        sandwich_check(u, m_list, degree_cap=6, sample_points=points, dim=2)
        # once on the sample points, once on the bumped points
        assert calls.count(True) == 2, (m_list, points)


@pytest.mark.parametrize("kw, message", [
    ({"sample_points": []}, "^sample_points must not be empty$"),
    ({"polyradii": ()}, "^polyradii must not be empty$"),
    ({"polyradii": (1.0,)}, "^no polyradius keeps a bumped sample point inside the unit polydisk$"),
    ({"sample_points": [(0.5, 0.5)], "polyradii": (0.5, 0.7)}, "^no polyradius keeps"),
    ({"sample_points": [(0.5, 0.5), (1.5, 0.5)]}, r"^sample point outside the unit polydisk: \(1\.5, 0\.5\)$"),
    ({"sample_points": [(0.5, -1.0)]}, "^sample point outside the unit polydisk"),
    ({"sample_points": [(0.5, 0.9j + 0.5)]}, "^sample point outside the unit polydisk"),
    ({"sample_points": [(0.5, math.nan)]}, "^sample point outside the unit polydisk"),
    ({"sample_points": [(0.5,)]}, "^sample point dimension mismatch: 1 vs 2$"),
    ({"sample_points": [(0.5, 0.5), (0.1, 0.2, 0.3)]}, "^sample point dimension mismatch: 3 vs 2$"),
    ({"polyradii": (0.05, 0.0)}, "^polyradii must be positive$"),
    ({"polyradii": (-0.1,)}, "^polyradii must be positive$"),
    ({"polyradii": (math.nan,)}, "^polyradii must be positive$"),
])
def test_sandwich_input_errors_come_before_the_bases(monkeypatch, kw, message):
    import lelong.demailly as demailly

    def no_bases(*args):
        raise AssertionError("bases built before the input check")

    monkeypatch.setattr(demailly, "_bases", no_bases)
    with pytest.raises(ValueError, match=message):
        sandwich_check(max_log(), [1, 2], degree_cap=4, dim=2, **kw)


def test_bounds_check_dimension_mismatch():
    # the mismatch is reported before the weight's own checks
    for phi in ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0)]):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            lelong_bounds_check(max_log(), ExponentSet.of(phi), [1], degree_cap=4, sched=SCHED, dim=2)


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


def test_default_degree_cap_three_variables():
    # three variables take the two-variable default and the same intercept rule
    assert basis_norms(Scale(F(3), CoordLog(1)), 1, dim=3).degree_cap == 8
    u = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3, 2), CoordLog(2)), Scale(F(3), CoordLog(3)))
    assert basis_norms(u, 2, dim=3).degree_cap == 12


def test_basis_and_sample_point_limits(monkeypatch):
    import lelong.demailly as demailly

    monkeypatch.setattr(demailly, "MAX_BASIS_EXPONENTS", 81)
    assert len(basis_norms(max_log(), 1, degree_cap=8, dim=2).entries) == 81
    with pytest.raises(ValueError, match=r"^10\^2 basis exponents exceed the limit of 81$"):
        basis_norms(max_log(), 1, degree_cap=9, dim=2)
    with pytest.raises(ValueError, match=r"^82\^1 basis exponents exceed the limit of 81$"):
        basis_norms(NegPowLog(1, F(1)), 1, degree_cap=81, dim=1)
    # the default cap counts too: 2 ceil(3 * 3/2) = 10, so 11 exponents per axis
    with pytest.raises(ValueError, match=r"^11\^2 basis exponents"):
        basis_norms(MaxOf.of(Scale(F(3, 2), CoordLog(1)), CoordLog(2)), 3, dim=2)
    monkeypatch.setattr(demailly, "MAX_BASIS_EXPONENTS", 36)
    assert len(sandwich_check(log_z(), [1], degree_cap=0, dim=2).details["sample_points"]) == 36
    with pytest.raises(ValueError, match=r"^6\^3 default sample points exceed the limit of 36$"):
        sandwich_check(log_z(), [1], degree_cap=0, dim=3)
    # explicit sample points are the caller's choice
    assert sandwich_check(log_z(), [1], degree_cap=0, dim=3, sample_points=[(0.5, 0.5, 0.5)]).details


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
