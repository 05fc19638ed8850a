import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from lelong.indicator_calculus import generalized_lelong_exact
from lelong.numeric_oracle import (
    NonPshStarProbeError,
    RadialSchedule,
    SliceUndefinedError,
    classical_lelong_numeric,
    directional_lelong_numeric,
    generalized_lelong_numeric,
    indicator_profile,
    _extrapolate,
    slice_lelong,
    sphere_mean,
    swept_measure_apply,
    torus_mean,
)
from lelong.poly_geom import DegenerateIndicatorError, ExponentSet
from lelong.weights import CoordLog, MaxOf, NegPowLog, PolyLog, Scale, scaling_transform


def es(*points):
    return ExponentSet.of(points)


def flat_weight():
    return MaxOf.of(NegPowLog(1, F(1, 2)), CoordLog(2))


FAST = RadialSchedule(levels=(-5.0, -10.0, -20.0, -30.0), angular_nodes=256)


# ---------------------------------------------------------------------------
# torus means


def test_torus_mean_constant_modulus():
    assert torus_mean(CoordLog(1), (-2.0, -3.0), 256) == -2.0


def test_torus_mean_sum_of_coordinates():
    # mean of log|z1 + z2| on the unit-modulus torus scaled by e^-1;
    # the exact mean is -1, checked against a dense 1-D quadrature
    w = PolyLog.of([(1, (1, 0)), (1, (0, 1))])
    got = torus_mean(w, (-1.0, -1.0), 256)
    nodes = 10_000
    th = 2 * math.pi * (np.arange(nodes) + 0.5) / nodes
    oracle = -1.0 + math.fsum(np.log(np.abs(1 + np.exp(1j * th))).tolist()) / nodes
    assert abs(oracle - (-1.0)) < 1e-4
    assert got == pytest.approx(-1.0, abs=5e-3)


def test_torus_mean_value_property():
    # mean of log|z1 - c| is max(t1, log|c|) when the radius differs from |c|
    for t1, c in [(-2.0, 0.5), (-0.3, 0.5), (-2.0, 0.9), (-0.05, 0.5)]:
        w = PolyLog.of([(1, (1,)), (-c, (0,))])
        want = max(t1, math.log(abs(c)))
        assert torus_mean(w, (t1,), 512) == pytest.approx(want, abs=1e-6)


def test_torus_mean_validation():
    with pytest.raises(ValueError, match="t_k < 0"):
        torus_mean(CoordLog(1), (0.5, -1.0), 256)
    with pytest.raises(ValueError, match="at least 64"):
        torus_mean(CoordLog(1), (-1.0, -1.0), 32)


NAN, INF = math.nan, math.inf


def test_torus_mean_rejects_nan_radii():
    w = PolyLog.of([(1, (1, 0)), (1, (0, 1))])
    with pytest.raises(ValueError, match="t_k < 0"):
        torus_mean(w, (NAN, -1.0), 64)
    # -inf restricts to the hyperplane z1 = 0, where the mean is log|z2|
    assert torus_mean(w, (-INF, -1.0), 64) == -1.0


# a weight in three variables, given two: each entry point names both counts
# (before the check, an IndexError from the phase of z3)
THREE_VARIABLES = PolyLog.of([(1, (0, 1, 5)), (1, (1, 0, 0))])


def test_torus_mean_rejects_more_variables_than_radii():
    with pytest.raises(ValueError, match="^weight references 3 coordinates but the number of torus radii is 2$"):
        torus_mean(THREE_VARIABLES, (-1.0, -2.0), 64)


def test_slice_rejects_more_variables_than_its_dimension():
    with pytest.raises(ValueError, match="^weight references 3 coordinates but the slice dimension is 2$"):
        slice_lelong(THREE_VARIABLES, 1)


def test_sphere_mean_rejects_more_variables_than_its_dimension():
    with pytest.raises(ValueError, match="^weight references 3 coordinates but the sphere dimension is 2$"):
        sphere_mean(THREE_VARIABLES, -1.0, 64, 2)


def test_classical_estimate_rejects_more_variables_than_its_dimension():
    with pytest.raises(ValueError, match="^weight references 3 coordinates but the sphere dimension is 2$"):
        classical_lelong_numeric(THREE_VARIABLES, dim=2)


def test_directional_estimate_rejects_more_variables_than_its_direction():
    with pytest.raises(ValueError, match="^weight references 3 coordinates but the number of torus radii is 2$"):
        directional_lelong_numeric(THREE_VARIABLES, (1, 1), dim=2)


def test_indicator_profile_names_both_counts_per_entry():
    (entry,) = indicator_profile(THREE_VARIABLES, [(1, 1)], dim=2)
    assert entry.estimate is None
    assert entry.error == "weight references 3 coordinates but the number of torus radii is 2"


def test_swept_measure_rejects_more_variables_than_its_atoms():
    with pytest.raises(ValueError, match="^weight references 3 coordinates but the number of torus radii is 2$"):
        swept_measure_apply(es((1, 0), (0, 1)), THREE_VARIABLES, -5.0, 64)


def test_generalized_estimate_rejects_more_variables_than_its_atoms():
    with pytest.raises(ValueError, match="^weight references 3 coordinates but the number of torus radii is 2$"):
        generalized_lelong_numeric(es((1, 0), (0, 1)), THREE_VARIABLES)


def test_torus_mean_deterministic():
    w = PolyLog.of([(1, (2, 0)), (1j, (0, 3)), (-0.5, (1, 1))])
    a = torus_mean(w, (-2.0, -3.0), 256)
    b = torus_mean(w, (-2.0, -3.0), 256)
    assert a == b  # bitwise


# ---------------------------------------------------------------------------
# directional estimates


def test_directional_poly_example():
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    est = directional_lelong_numeric(w, (1.0, 1.0), FAST)
    assert est.value == pytest.approx(2.0, rel=1e-6)


def test_directional_coord_log_exact_slope():
    est = directional_lelong_numeric(CoordLog(1), (0.7, 1.3), FAST)
    assert est.value == pytest.approx(0.7, rel=1e-12)


def test_directional_flat_weight_vanishes():
    deep = RadialSchedule(levels=(-1e4, -3e4, -1e5), angular_nodes=64)
    est = directional_lelong_numeric(flat_weight(), (1.0, 1.0), deep)
    assert abs(est.value) <= 0.02


def test_directional_vs_exact_random_instances():
    # unit-coefficient polynomials with the exponents of a random diagram:
    # the schedule estimate lands within 2% of the exact minimum
    rng = random.Random(101)
    for _ in range(10):
        pts = set()
        for _ in range(rng.randint(2, 5)):
            p = (rng.randint(0, 5), rng.randint(0, 5))
            if p != (0, 0):
                pts.add(p)
        if not pts:
            continue
        S = ExponentSet.of(pts)
        w = PolyLog.of([(1, J) for J in pts])
        a_exact = (F(rng.randint(1, 12), 3), F(rng.randint(1, 12), 3))
        est = directional_lelong_numeric(w, tuple(map(float, a_exact)), FAST)
        exact = float(S.min_support(a_exact))
        assert abs(est.value - exact) <= 0.02 * max(abs(exact), 1e-9)


def test_directional_rejects_bad_direction():
    with pytest.raises(ValueError, match="positive"):
        directional_lelong_numeric(CoordLog(1), (1.0, 0.0), FAST)


def test_directional_rejects_non_finite_directions():
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    for a in [(INF, 1.0), (1.0, NAN), (-INF, 1.0)]:
        with pytest.raises(ValueError, match="^direction must be finite$"):
            directional_lelong_numeric(w, a, FAST)


def test_directional_direction_length_without_dim():
    # without dim the weight's own dimension decides: a short direction
    # used to raise a bare IndexError, a long one ran a 256^3 grid
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    for a in [(1.0,), (1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError, match="^direction dimension mismatch$"):
            directional_lelong_numeric(w, a, FAST)
    with pytest.raises(ValueError, match="^direction dimension mismatch$"):
        directional_lelong_numeric(Scale(F(1, 2), w), (1.0,), FAST)
    with pytest.raises(ValueError, match="^direction dimension mismatch$"):
        directional_lelong_numeric(CoordLog(2), (1.0,), FAST)
    assert directional_lelong_numeric(w, (1.0, 1.0), FAST).value == pytest.approx(2.0, abs=1e-6)
    # a weight that references fewer coordinates than the direction has
    # is a weight on the larger space
    assert directional_lelong_numeric(CoordLog(1), (2.0, 1.0), FAST).value == pytest.approx(2.0, abs=1e-6)
    # with dim given, the length is exactly dim
    with pytest.raises(ValueError, match="^direction dimension mismatch$"):
        directional_lelong_numeric(CoordLog(1), (2.0, 1.0), FAST, dim=3)


def test_non_psh_star_probe_aborts():
    class Bottom:
        theta_dependent = False

        def torus_values(self, t, theta):
            return np.asarray(float("-inf"))

    with pytest.raises(NonPshStarProbeError, match="non-PSH_"):
        directional_lelong_numeric(Bottom(), (1.0, 1.0), FAST)
    # an object of no weight type has no dimension to check a direction against
    with pytest.raises(NonPshStarProbeError, match="non-PSH_"):
        directional_lelong_numeric(Bottom(), (1.0,), FAST)


def test_schedule_validation():
    with pytest.raises(ValueError):
        RadialSchedule(levels=(-5.0,))
    with pytest.raises(ValueError):
        RadialSchedule(levels=(-10.0, -5.0))
    with pytest.raises(ValueError):
        RadialSchedule(levels=(-5.0, -10.0), angular_nodes=32)
    with pytest.raises(ValueError):
        RadialSchedule(levels=(-5.0, -10.0), extrapolation="cubic")
    for levels in [(math.nan, math.nan), (-5.0, -math.inf)]:
        with pytest.raises(ValueError, match="levels must be finite"):
            RadialSchedule(levels=levels)
    with pytest.raises(ValueError, match="levels must be negative"):
        RadialSchedule(levels=(5.0, -10.0))


def test_geometric_schedule_checks_its_extreme_levels_first():
    # past about 1075 levels the shallowest underflows to -0.0: rejected
    # before the tuple is built, however many levels are asked for
    with pytest.raises(ValueError, match="levels must be negative"):
        RadialSchedule.geometric(-30.0, 10**12)
    with pytest.raises(ValueError, match="at least two levels"):
        RadialSchedule.geometric(-30.0, -10**12)
    with pytest.raises(ValueError, match="levels must be finite"):
        RadialSchedule.geometric(math.nan, 4)
    with pytest.raises(ValueError, match="angular_nodes"):
        RadialSchedule.geometric(-30.0, 4, 10)


def test_geometric_schedule_builder():
    s = RadialSchedule.geometric(-40.0, 4, 128)
    assert s.levels == (-5.0, -10.0, -20.0, -40.0)
    assert s.angular_nodes == 128


# ---------------------------------------------------------------------------
# classical estimates


def test_classical_coordinate_multiplicity():
    est = classical_lelong_numeric(CoordLog(1), FAST, dim=2)
    assert est.value == pytest.approx(1.0, rel=1e-9)
    assert est.diagnostics["kiselman_gap"] < 1e-6


def test_classical_cusp():
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    est = classical_lelong_numeric(w, FAST, dim=2)
    assert est.value == pytest.approx(2.0, rel=1e-3)


def test_classical_monomial():
    w = PolyLog.of([(1, (1, 1))])
    est = classical_lelong_numeric(w, FAST, dim=2)
    assert est.value == pytest.approx(2.0, rel=1e-9)


def test_classical_dimension_three():
    sched = RadialSchedule(levels=(-6.0, -12.0), angular_nodes=64)
    w = PolyLog.of([(1, (1, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
    est = classical_lelong_numeric(w, sched, dim=3, radial_nodes=8)
    assert est.value == pytest.approx(1.0, rel=5e-2)


def test_classical_rejects_high_dimension():
    with pytest.raises(ValueError, match="1..3"):
        classical_lelong_numeric(CoordLog(1), FAST, dim=4)


def test_sphere_mean_rejects_non_finite_radii():
    w = PolyLog.of([(1, (1, 0)), (1, (0, 1))])
    for r in (-INF, NAN, INF):
        with pytest.raises(ValueError, match="^radius exponent must be finite$"):
            sphere_mean(w, r, 64, 2)


# z1^2 + z2^3 + z3^5, whose sphere rows all take a closed form, and its
# max with log|z1|, whose sphere rows all reach the grid
CUSP3 = PolyLog.of([(1, (2, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 5))])
CUSP3_TREE = MaxOf.of(CUSP3, CoordLog(1))


def test_oversized_sphere_grid_fails_before_allocating():
    # 16^2 grid rows of 256^3 points per level: a 64 GiB complex128 array
    # without the limit; test_classical_dimension_three builds 8^2 * 64^3,
    # exactly the limit
    start = time.monotonic()
    with pytest.raises(ValueError, match="exceeds the limit"):
        classical_lelong_numeric(CUSP3_TREE, dim=3)
    assert time.monotonic() - start < 1.0


def test_closed_sphere_rows_build_no_grid():
    # the cap counts the grid rows a level builds: 256^3 nodes per torus is
    # within it, and every row of the polynomial takes a closed form
    est = classical_lelong_numeric(CUSP3, dim=3)
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_sphere_mean_rejects_fewer_than_64_nodes():
    for nodes in (-1, 1, 63):
        with pytest.raises(ValueError, match="^nodes must be at least 64$"):
            sphere_mean(CoordLog(1), -1.0, nodes, 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_nodes_are_bounded_before_the_profiles_exist(dim):
    for radial in (0, -3):
        with pytest.raises(ValueError, match=f"^radial_nodes must be at least 1, got {radial}$"):
            sphere_mean(CoordLog(1), -1.0, 64, dim, radial_nodes=radial)
    # 2^40 radial nodes would be 8 TiB of profile values
    start = time.monotonic()
    for w in (CoordLog(1), PolyLog.of([(1, (0,) * dim), (1, (1,) + (0,) * (dim - 1))])):
        with pytest.raises(ValueError, match="exceeds the limit"):
            sphere_mean(w, -1.0, 64, dim, radial_nodes=2**40)
        with pytest.raises(ValueError, match="exceeds the limit"):
            classical_lelong_numeric(w, FAST, dim=dim, radial_nodes=2**40)
    assert time.monotonic() - start < 1.0


def test_oversized_torus_and_slice_grids_fail():
    w = PolyLog.of([(1, (1, 0, 0, 0)), (1, (0, 1, 1, 1))])
    with pytest.raises(ValueError, match="exceeds the limit"):
        torus_mean(w, (-1.0,) * 4, 128)
    # on {z1 = 0}: z2 - z2^2, which depends on the angle
    angled = PolyLog.of([(1, (1, 0)), (1, (0, 1)), (-1, (0, 2))])
    with pytest.raises(ValueError, match="exceeds the limit"):
        slice_lelong(angled, 1, RadialSchedule(angular_nodes=2**24 + 1))
    # the cap is checked before the angle arrays exist: 2^40 nodes per
    # angle would be 8 TiB each
    huge = RadialSchedule(angular_nodes=2**40)
    w2 = PolyLog.of([(1, (1, 0)), (1, (0, 1))])
    # a homogeneous weight, whose tie along (1, 1) has a rank-one closed form
    h3 = PolyLog.of([(1.6 - 0.7j, (5, 0)), (-1.4 + 0.5j, (0, 5)), (-0.2 + 1.3j, (1, 4))])
    for probe in (lambda: torus_mean(w2, (-1.0, -1.0), 2**40),
                  lambda: classical_lelong_numeric(w2, huge, dim=2),
                  lambda: slice_lelong(angled, 1, huge),
                  lambda: torus_mean(h3, (-1.0, -1.0), 2**40),
                  lambda: classical_lelong_numeric(h3, huge, dim=2)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            probe()


# ---------------------------------------------------------------------------
# the Richardson fit


RICHARDSON = "richardson_linear_in_1/r"


def lstsq_intercept(levels, ys) -> float:
    """The intercept of the line over the last three levels by LAPACK's least squares."""
    xs = np.array([1.0 / r for r in levels[-3:]])
    coef, *_ = np.linalg.lstsq(np.vstack([np.ones(xs.size), xs]).T, np.array(ys[-3:]), rcond=None)
    return float(coef[0])


def exact_fit(levels, ys) -> tuple[F, F]:
    """(intercept, slope) of the least-squares line over the last three levels, in rationals."""
    xs, yv = [F(1.0 / r) for r in levels[-3:]], [F(y) for y in ys[-3:]]
    x_bar, y_bar = sum(xs) / len(xs), sum(yv) / len(yv)
    b = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, yv)) / sum((x - x_bar) ** 2 for x in xs)
    return y_bar - b * x_bar, b


def random_sweep(rng: random.Random, spread: tuple[float, float]):
    """2 to 5 decreasing levels, each spread times the one before, and ratios nu + m / r + noise."""
    r, levels = -rng.uniform(0.1, 10.0), []
    for _ in range(rng.randint(2, 5)):
        levels.append(r)
        r *= rng.uniform(*spread)
    nu, m, noise = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.choice([0.0, 1e-3, 1.0])
    return levels, [nu + m / r + noise * rng.uniform(-1, 1) for r in levels]


def fit_ulp(levels, ys) -> float:
    """One ulp of the largest of the terms y and b * mean(x) that the intercept is made of."""
    xs = [1.0 / r for r in levels[-3:]]
    b = float(exact_fit(levels, ys)[1])
    return math.ulp(max(*(abs(y) for y in ys[-3:]), abs(b * sum(xs) / len(xs))))


def test_fit_matches_lstsq():
    # on levels spread like a schedule's; LAPACK's SVD is the less exact of
    # the two (up to 10 ulps from the rational fit, the closed form 4)
    rng = random.Random(23)
    for _ in range(500):
        levels, ys = random_sweep(rng, (1.5, 4.0))
        value, _ = _extrapolate(levels, ys, RICHARDSON)
        assert abs(value - lstsq_intercept(levels, ys)) <= 16 * fit_ulp(levels, ys)


def test_fit_is_the_rational_fit_within_four_ulps():
    # also on levels 1% to 10% apart, where lstsq drifts by hundreds of ulps
    rng = random.Random(29)
    for spread in ((1.5, 4.0), (1.01, 1.1)):
        for _ in range(500):
            levels, ys = random_sweep(rng, spread)
            value, _ = _extrapolate(levels, ys, RICHARDSON)
            assert abs(value - float(exact_fit(levels, ys)[0])) <= 4 * fit_ulp(levels, ys)


def test_fit_is_exact_on_collinear_dyadic_data():
    # dyadic x = 1/r with exact means: two levels, or three x in arithmetic
    # progression (-3/4, -1/2, -1/4)
    for levels in ((-2.0, -4.0), (-4 / 3, -2.0, -4.0), (-1.0, -4 / 3, -2.0, -4.0)):
        ys = [1.375 - 0.625 / r for r in levels]
        value, stderr = _extrapolate(list(levels), ys, RICHARDSON)
        assert value == 1.375
        assert stderr == abs(ys[-1] - ys[-2])
    # levels whose 1/r coincide in floating point leave the slope at 0
    levels = [-1e308, -1.0000000000000002e308]
    assert 1 / levels[0] == 1 / levels[1]
    assert _extrapolate(levels, [1.0, 2.0], RICHARDSON)[0] == 1.5


def test_fit_of_a_rank_one_initial_form_is_its_exact_density():
    # 3 z1^2 + z2^3 + z1^2 z2^2 along (3, 2): nu = min(6, 6, 10) = 6
    w = PolyLog.of([(3, (2, 0)), (1, (0, 3)), (1, (2, 2))])
    assert directional_lelong_numeric(w, (3.0, 2.0)).value == pytest.approx(6.0, abs=1e-12)


# ---------------------------------------------------------------------------
# swept measures


def test_swept_measure_forced_values():
    assert swept_measure_apply(es((1, 0), (0, 1)), CoordLog(1), -5.0, 256) == pytest.approx(
        -5.0, abs=1e-9
    )
    assert swept_measure_apply(es((2, 0), (0, 3)), CoordLog(2), -6.0, 256) == pytest.approx(
        -12.0, abs=1e-9
    )
    w = PolyLog.of([(1, (1, 1))])
    assert swept_measure_apply(es((4, 0), (1, 1), (0, 4)), w, -4.0, 256) == pytest.approx(
        -32.0, abs=1e-9
    )


def test_swept_ratio_converges_to_exact():
    rng = random.Random(55)
    for _ in range(6):
        pts = {(rng.randint(1, 4), 0), (0, rng.randint(1, 4))}
        for _ in range(rng.randint(0, 2)):
            pts.add((rng.randint(1, 4), rng.randint(1, 4)))
        S_phi = ExponentSet.of(pts)
        supp = {(rng.randint(0, 3), rng.randint(0, 3))} - {(0, 0)} or {(1, 1)}
        supp.add((rng.randint(1, 3), rng.randint(1, 3)))
        w = PolyLog.of([(1, J) for J in supp])
        exact = float(generalized_lelong_exact(ExponentSet.of(supp), S_phi).value)
        r = -30.0
        ratio = swept_measure_apply(S_phi, w, r, 256) / r
        assert abs(ratio - exact) <= 0.02 * max(exact, 1e-9)


def test_swept_measure_rejects_non_finite_levels():
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    for r in (NAN, -INF, INF):
        with pytest.raises(ValueError, match="^level must be finite$"):
            swept_measure_apply(es((1, 0), (0, 1)), w, r, 64)


def test_swept_rejects_wall_atoms():
    # a weight whose pole set is a line, not the origin: its boundary
    # measure carries mass on a coordinate wall in dimension three, and
    # the radial probe must refuse it instead of probing the unit torus
    S = ExponentSet.of([(2, 0, 1), (1, 1, 0), (0, 2, 1)])
    from lelong.poly_geom import gamma_measure

    atoms = gamma_measure(S).atoms
    assert any(any(x == 0 for x in t0) for t0, _ in atoms)
    with pytest.raises(ValueError, match="coordinate wall"):
        swept_measure_apply(S, CoordLog(1), -5.0, 256)


def test_swept_measure_error_precedence():
    # r, then the degenerate set, then every atom against the walls (a
    # free atom sorts first in the second set), then nodes
    walled = es((2, 0, 1), (1, 1, 0), (0, 2, 1))
    walled_late = es((2, 0, 3), (2, 1, 1), (3, 0, 2), (3, 2, 0))
    degenerate = es((1, 0))
    with pytest.raises(ValueError, match="level must be negative"):
        swept_measure_apply(degenerate, CoordLog(1), 0.0, 10)
    with pytest.raises(DegenerateIndicatorError):
        swept_measure_apply(degenerate, CoordLog(1), -5.0, 10)
    for S in (walled, walled_late):
        with pytest.raises(ValueError, match="coordinate wall"):
            swept_measure_apply(S, CoordLog(1), -5.0, 10)
    with pytest.raises(ValueError, match="nodes must be at least 64"):
        swept_measure_apply(es((1, 0), (0, 1)), CoordLog(1), -5.0, 10)


@pytest.mark.parametrize("w", [
    PolyLog.of([(1, (2, 0)), (0.5 - 1j, (1, 2)), (2, (0, 3))]),
    MaxOf.of(PolyLog.of([(1, (1, 1)), (-1, (3, 0))]), Scale(F(1, 2), CoordLog(2))),
    CoordLog(1),
])
def test_swept_measure_is_the_level_mean_of_the_generalized_sweep(w):
    S = es((4, 0), (1, 1), (0, 4))
    levels = generalized_lelong_numeric(S, w, FAST).diagnostics["levels"]
    for level in levels:
        swept = swept_measure_apply(S, w, level["r"], FAST.angular_nodes)
        assert swept.hex() == level["mean"].hex()


def test_generalized_numeric_examples():
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    est = generalized_lelong_numeric(es((1, 0), (0, 1)), w, FAST)
    assert est.value == pytest.approx(2.0, rel=2e-2)
    est = generalized_lelong_numeric(es((2, 0), (0, 3)), CoordLog(1), FAST)
    assert est.value == pytest.approx(3.0, rel=1e-9)
    w2 = PolyLog.of([(1, (1, 1))])
    est = generalized_lelong_numeric(es((4, 0), (1, 1), (0, 4)), w2, FAST)
    assert est.value == pytest.approx(8.0, rel=1e-9)


# ---------------------------------------------------------------------------
# slices


def test_slice_flat_weight():
    est = slice_lelong(flat_weight(), 1, FAST)
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_slice_scaled_coordinates():
    w = MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)))
    assert slice_lelong(w, 1, FAST).value == pytest.approx(3.0, rel=1e-9)
    w2 = MaxOf.of(CoordLog(1), CoordLog(2))
    assert slice_lelong(w2, 1, FAST).value == pytest.approx(1.0, rel=1e-9)


def test_slice_with_theta_dependence():
    # restriction of log|z2^2 - (1/4) z2 z1| to z1 = 0 is 2 log|z2|
    w = PolyLog.of([(1, (0, 2)), (-0.25, (1, 1))])
    assert slice_lelong(w, 1, FAST).value == pytest.approx(2.0, rel=1e-6)


def test_slice_undefined():
    with pytest.raises(SliceUndefinedError, match="slice undefined"):
        slice_lelong(PolyLog.of([(1, (1, 1))]), 1, FAST)


def test_a_finite_slice_that_clips_everywhere_is_a_non_psh_star_probe():
    # on {z1 = 0}: 10^6 log|z2|, finite but below the floor on every circle
    w = Scale(F(10**6), PolyLog.of([(1, (0, 1)), (1, (1, 1))]))
    with pytest.raises(NonPshStarProbeError, match="^non-PSH_\\* probe: every node clipped at level r=-5.0 "
                                                   "during slice probe on axis 1$"):
        slice_lelong(w, 1, FAST)


def test_slice_of_an_object_outside_the_node_algebra():
    # evaluated at t_1 = -inf: log|z2| + 1 where z1 = 0, else -inf everywhere
    class Custom:
        dimension = 2

        def torus_values(self, t, theta):
            return np.where(np.asarray(t[0]) == -np.inf, np.asarray(t[1]) + 1.0, -np.inf)

    assert slice_lelong(Custom(), 1, FAST).value == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(NonPshStarProbeError, match="every node clipped"):
        slice_lelong(Custom(), 2, FAST)


def test_slice_rejects_bad_dimension():
    with pytest.raises(ValueError, match="dimension 2"):
        slice_lelong(flat_weight(), 1, FAST, dim=3)


# ---------------------------------------------------------------------------
# profiles and rescaling


def test_indicator_profile_matches_min_formula():
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    prof = indicator_profile(w, [(1, 1), (3, 1), (1, 3)], FAST)
    want = {(1.0, 1.0): 2.0, (3.0, 1.0): 3.0, (1.0, 3.0): 2.0}
    for entry in prof:
        assert entry.error is None
        assert entry.estimate.value == pytest.approx(want[entry.direction], rel=1e-6)


def test_indicator_profile_flat_weight_vanishes():
    deep = RadialSchedule(levels=(-1e4, -3e4, -1e5), angular_nodes=64)
    prof = indicator_profile(flat_weight(), [(1, 1), (2, 1), (1, 2)], deep)
    for entry in prof:
        assert abs(entry.estimate.value) <= 0.02


def test_indicator_profile_collects_errors():
    prof = indicator_profile(CoordLog(1), [(1.0, 1.0), (1.0, -1.0)], FAST)
    assert prof[0].error is None
    assert prof[1].estimate is None and "positive" in prof[1].error


def test_rescaled_weight_keeps_directional_density():
    w = PolyLog.of([(1, (1, 0)), (1, (0, 2))])
    base = directional_lelong_numeric(w, (1.0, 1.0), FAST).value
    for m in (1, 2, 4):
        wm = scaling_transform(w, m)
        est = directional_lelong_numeric(wm, (1.0, 1.0), FAST).value
        assert est == pytest.approx(base, rel=1e-9)
        assert est == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# lower bound of multicircled weights by their slice behavior


def _slice_ratio(w, axis, rho, dim=2):
    """value of the axis slice at modulus rho divided by log rho."""
    from lelong.weights import torus_values

    t = [float("-inf")] * dim
    t[axis - 1] = math.log(rho)
    val = float(torus_values(w, tuple(t), tuple(0.0 for _ in range(dim))))
    return val / math.log(rho)


def test_multicircled_lower_bound_from_slices():
    # w(z) >= A max_k log|z_k| on |z_k| <= 1/2, with A fitted per axis
    # from the slice value at modulus 1/2
    samples = [
        flat_weight(),
        MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2))),
        MaxOf.of(CoordLog(1), CoordLog(2)),
        MaxOf.of(NegPowLog(1, F(1, 2)), NegPowLog(2, F(3, 4))),
    ]
    from lelong.weights import eval_expr

    moduli = [0.02, 0.1, 0.25, 0.4, 0.5]
    for w in samples:
        a_fit = max(_slice_ratio(w, k, 0.5) for k in (1, 2)) * (1 + 1e-12) + 1e-12
        for r1 in moduli:
            for r2 in moduli:
                val = eval_expr(w, (r1, r2))
                bound = a_fit * max(math.log(r1), math.log(r2))
                assert val >= bound - 1e-9, (w, r1, r2, val, bound)
