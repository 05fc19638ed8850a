import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from lelong.poly_geom import ExponentSet
from lelong.weights import (
    CoordLog,
    MaxOf,
    NegPowLog,
    PolyLog,
    Scale,
    depends_on_theta,
    dimension_of,
    eval_expr,
    indicator_support,
    is_multicircled,
    is_psh_star,
    scaling_transform,
    torus_values,
)


def flat_weight():
    """max(-sqrt|log|z1||, log|z2|): trivial indicator, positive slice mass."""
    return MaxOf.of(NegPowLog(1, F(1, 2)), CoordLog(2))


def test_eval_flat_weight():
    z = (math.exp(-4), math.exp(-1))
    assert eval_expr(flat_weight(), z) == pytest.approx(-1.0, abs=1e-12)


def test_eval_coord_log():
    assert eval_expr(CoordLog(1), (0.5, 0.123)) == pytest.approx(math.log(0.5))


def test_eval_poly_log():
    w = PolyLog.of([(1, (2, 0)), (1, (0, 3))])
    assert eval_expr(w, (0.1, 0.1)) == pytest.approx(math.log(0.011), abs=1e-12)


def test_eval_on_axis():
    # a generator ignoring the vanishing coordinate keeps the value finite
    assert eval_expr(CoordLog(2), (0.0, 0.5)) == pytest.approx(math.log(0.5))
    assert eval_expr(PolyLog.of([(1, (1, 1))]), (0.0, 0.5)) == -math.inf
    assert eval_expr(flat_weight(), (0.0, 0.5)) == pytest.approx(math.log(0.5))


def test_eval_max_of_neg_inf_and_finite():
    w = MaxOf.of(PolyLog.of([(1, (1, 1))]), CoordLog(2))
    assert eval_expr(w, (0.0, 0.25)) == pytest.approx(math.log(0.25))


def test_polylog_validation():
    with pytest.raises(ValueError, match="zero coefficient"):
        PolyLog.of([(0, (1, 0))])
    with pytest.raises(ValueError, match="duplicate"):
        PolyLog.of([(1, (1, 0)), (2, (1, 0))])
    with pytest.raises(ValueError, match="at least one term"):
        PolyLog(())
    with pytest.raises(ValueError, match="nonnegative"):
        PolyLog.of([(1, (-1, 0))])


def test_neg_pow_log_power_range():
    with pytest.raises(ValueError):
        NegPowLog(1, F(3, 2))
    with pytest.raises(ValueError):
        NegPowLog(1, F(0))


def test_neg_pow_log_gives_the_grid_bits_at_a_point():
    # numpy's scalar power and its array loop differ in the last bit for
    # a few percent of these points; a 0-d point must take the array's bits
    rng = np.random.default_rng(20)
    t = -rng.uniform(0.0, 50.0, 5000)
    powers = [F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(9, 10)]
    for k, p in enumerate(powers):
        w = NegPowLog(1, p)
        grid = torus_values(w, (t,), (0.0,))
        points = [torus_values(w, (x,), (0.0,)) for x in t[k::len(powers)].tolist()]
        assert all(np.shape(v) == () for v in points)
        assert _same_bits(np.array(points), grid[k::len(powers)])
        # eval_expr at |z1| = e^t reads the bits of the grid at its log|z1|
        z = np.exp(t[k::len(powers)][:50]).tolist()
        logs = np.array([math.log(x) for x in z])
        assert _same_bits([eval_expr(w, (x,)) for x in z], torus_values(w, (logs,), (0.0,)))


def test_scale_positive():
    with pytest.raises(ValueError):
        Scale(F(-1), CoordLog(1))


def test_theta_dependence():
    assert not depends_on_theta(CoordLog(1))
    assert not depends_on_theta(flat_weight())
    assert not depends_on_theta(PolyLog.of([(2j, (1, 1))]))  # single monomial
    assert depends_on_theta(PolyLog.of([(1, (1, 0)), (1, (0, 1))]))
    assert is_multicircled(MaxOf.of(Scale(F(2), CoordLog(1)), CoordLog(2)))


def test_dimension_of():
    assert dimension_of(PolyLog.of([(1, (1, 0, 0))])) == 3
    assert dimension_of(flat_weight()) == 2


def test_scaling_transform_fixed_point():
    assert scaling_transform(CoordLog(1), 3) == CoordLog(1)


def test_scaling_transform_poly():
    w = PolyLog.of([(1, (1, 0)), (1, (0, 2))])
    out = scaling_transform(w, 2)
    assert out == Scale(F(1, 2), PolyLog.of([(1, (2, 0)), (1, (0, 4))]))


def test_scaling_transform_rejects_bad_m():
    with pytest.raises(ValueError):
        scaling_transform(CoordLog(1), 0)


def test_scaling_transform_preserves_indicator_support():
    # the exponent rescaling by m and the 1/m prefactor cancel exactly
    w = PolyLog.of([(1, (1, 0)), (1, (0, 2)), (1, (2, 1))])
    base = ExponentSet.of([J for _, J in w.terms])
    for m in (1, 2, 4, 7):
        out = scaling_transform(w, m)
        assert indicator_support(out, 2) == base


def test_indicator_support_on_trees():
    w = MaxOf.of(
        Scale(F(2), CoordLog(1)),
        PolyLog.of([(1, (0, 3))]),
    )
    assert indicator_support(w, 2) == ExponentSet.of([(2, 0), (0, 3)])


def test_indicator_support_rejects_sublog():
    with pytest.raises(ValueError, match="piecewise-linear"):
        indicator_support(flat_weight(), 2)


def test_polylog_bounded_by_indicator_plus_constant():
    # log|sum of unit monomials| never exceeds the piecewise-linear
    # indicator of the support by more than log(number of terms)
    import random

    from exact_oracles import indicator_eval

    rng = random.Random(71)
    for _ in range(15):
        supp = set()
        for _ in range(rng.randint(1, 4)):
            p = (rng.randint(0, 4), rng.randint(0, 4))
            if p != (0, 0):
                supp.add(p)
        if not supp:
            continue
        w = PolyLog.of([(1, J) for J in sorted(supp)])
        S = ExponentSet.of(supp)
        c = math.log(len(supp))
        for _ in range(20):
            z = tuple(
                rng.uniform(0.01, 0.3) * complex(math.cos(t), math.sin(t))
                for t in (rng.uniform(0, 2 * math.pi) for _ in range(2))
            )
            assert eval_expr(w, z) <= indicator_eval(S, z) + c + 1e-9


def psh_star_probe(w, axis: int, n: int) -> bool:
    """Oracle: is w finite at some of 3 radii x 8 angles on {z_axis = 0}?"""
    angles = 2 * math.pi * (np.arange(8) + 0.5) / 8
    for rho in (0.3, 0.5, 0.7):
        t = [math.log(rho)] * n
        t[axis - 1] = -math.inf
        theta = []
        for k in range(n):
            if k == axis - 1:
                theta.append(0.0)
            else:
                shape = [1] * n
                shape[k] = 8
                theta.append(angles.reshape(shape))
        if np.any(np.isfinite(torus_values(w, t, theta))):
            return True
    return False


def _random_tree(rng: random.Random, n: int, depth: int = 0):
    kind = rng.choice(["poly", "coord", "negpow"] + ["max", "scale"] * (depth < 3))
    if kind == "poly":
        exps = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))}
        return PolyLog.of([(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), J) for J in sorted(exps)])
    if kind == "coord":
        return CoordLog(rng.randint(1, n))
    if kind == "negpow":
        return NegPowLog(rng.randint(1, n), F(rng.randint(1, 4), 4))
    if kind == "max":
        return MaxOf(tuple(_random_tree(rng, n, depth + 1) for _ in range(rng.randint(1, 3))))
    return Scale(rng.choice([F(rng.randint(1, 5), rng.randint(1, 3)), rng.uniform(0.1, 3.0)]),
                 _random_tree(rng, n, depth + 1))


def test_psh_star_probe():
    w = PolyLog.of([(1, (1, 1))])  # -inf on both axes
    assert not is_psh_star(w, 1, 2)
    assert not is_psh_star(w, 2, 2)
    assert is_psh_star(flat_weight(), 1, 2)
    assert is_psh_star(flat_weight(), 2, 2)
    assert is_psh_star(CoordLog(1), 2, 2)
    assert not is_psh_star(CoordLog(1), 1, 2)


def test_psh_star_matches_probe_on_random_trees():
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 3)
        w = _random_tree(rng, n)
        for axis in range(1, n + 1):
            got = is_psh_star(w, axis, n)
            assert got == psh_star_probe(w, axis, n), (w, axis)
            seen.add(got)
    assert seen == {True, False}


def test_psh_star_rejects_bad_input():
    with pytest.raises(ValueError, match="out of range"):
        is_psh_star(CoordLog(1), 3, 2)

    class Custom:
        dimension = 2

        def torus_values(self, t, theta):
            return np.zeros(1)

    with pytest.raises(TypeError, match="not a weight expression"):
        is_psh_star(Custom(), 1)


# ---------------------------------------------------------------------------
# the stacked log-sum-exp kernel against the per-term loop it replaced


def _same_bits(a, b) -> bool:
    a, b = (np.ascontiguousarray(x, dtype=float) for x in np.broadcast_arrays(a, b))
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


_ANGLES = (2 * np.pi * (np.arange(64) + 0.618) / 64, 2 * np.pi * (np.arange(64) + 0.236) / 64)
_SPHERE_T = np.log((np.arange(16) + 0.5) / 16)

_POINTS = {
    "scalar point": ((-0.3, -0.7), (0.4, 1.9)),
    "scalar t": ((-1.5, -0.5), (_ANGLES[0][:, None], _ANGLES[1][None, :])),
    "sphere-shaped t": ((-3.0 + 0.5 * _SPHERE_T.reshape(16, 1, 1),
                         -3.0 + 0.5 * np.log1p(-np.exp(_SPHERE_T)).reshape(16, 1, 1)),
                        (_ANGLES[0].reshape(1, 64, 1), _ANGLES[1].reshape(1, 1, 64))),
    "-inf entry": ((-math.inf, -2.0), (_ANGLES[0][:, None], _ANGLES[1][None, :])),
    "all -inf": ((-math.inf, -math.inf), (_ANGLES[0][:, None], _ANGLES[1][None, :])),
    "-inf in t arrays": ((np.array([-0.5, -math.inf, -40.0]).reshape(3, 1, 1),
                          np.array([-math.inf, -1.0]).reshape(1, 2, 1)),
                         (0.0, _ANGLES[1].reshape(1, 1, 64))),
}

_POLYS = {
    "three terms": [(1, (2, 0)), (0.5 - 1j, (1, 2)), (2, (0, 3))],
    "constant and zero exponents": [(3, (0, 0)), (1j, (1, 0)), (-1, (0, 2)), (0.25, (4, 1))],
    "single term": [(2 - 1j, (1, 2))],
    "one axis unused": [(1, (1, 0)), (-0.5 + 2j, (3, 0))],
}


@pytest.mark.parametrize("point", _POINTS)
@pytest.mark.parametrize("poly", _POLYS)
def test_polylog_kernel_matches_per_term_loop_bit_for_bit(point, poly):
    from grid_oracles import polylog_values_per_term

    w = PolyLog.of(_POLYS[poly])
    t, theta = _POINTS[point]
    assert _same_bits(torus_values(w, t, theta), polylog_values_per_term(w, t, theta))
