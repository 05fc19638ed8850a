import math
import random
from fractions import Fraction as F

import pytest

from exact_oracles import Indicator, indicator_eval
from lelong.indicator_calculus import (
    LelongValue,
    directional_lelong_exact,
    generalized_lelong_exact,
    newton_number,
    tau,
)
from lelong.poly_geom import DegenerateIndicatorError, ExponentSet, gamma_measure


def es(*points):
    return ExponentSet.of(points)


def simplex_weight(a):
    """Exponent set of max_k (1/a_k) log|z_k|."""
    n = len(a)
    rows = []
    for k in range(n):
        row = [F(0)] * n
        row[k] = 1 / F(a[k])
        rows.append(tuple(row))
    return ExponentSet.of(rows)


def _random_exponent_set(rng, n, max_entry=5, max_points=4):
    pts = set()
    for _ in range(rng.randint(1, max_points)):
        p = tuple(F(rng.randint(0, max_entry * 2), 2) for _ in range(n))
        if any(x > 0 for x in p):
            pts.add(p)
    if not pts:
        pts.add(tuple(F(1) for _ in range(n)))
    return ExponentSet.of(pts)


# ---------------------------------------------------------------------------
# indicator evaluation


def test_indicator_eval_examples():
    phi = Indicator.of([(1, 0), (0, 1)])
    assert indicator_eval(phi, (0.1, 0.01)) == pytest.approx(math.log(0.1), abs=1e-12)
    phi2 = Indicator.of([(2, 0), (0, 3)])
    e = math.exp(-1)
    assert indicator_eval(phi2, (e, e)) == pytest.approx(-2.0, abs=1e-12)
    assert indicator_eval(phi, (0.0, 0.5)) == pytest.approx(math.log(0.5), abs=1e-12)


def test_indicator_eval_neg_infinity_token():
    phi = Indicator.of([(1, 1)])
    assert indicator_eval(phi, (0.0, 0.5)) == -math.inf


def test_indicator_eval_rejects_outside_polydisk():
    phi = Indicator.of([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="polydisk"):
        indicator_eval(phi, (1.0, 0.5))


def test_indicator_canonical_form():
    assert Indicator.of([(1, 0), (0, 1), (1, 1)]) == Indicator.of([(1, 0), (0, 1)])
    assert Indicator.of([(4, 0), (2, 2), (0, 4)]) == Indicator.of([(4, 0), (0, 4)])


def test_homogeneity_rescaling():
    rng = random.Random(17)
    phi = Indicator.of([(2, 0), (1, 1), (0, 3)])
    for _ in range(50):
        y = tuple(rng.uniform(0.05, 0.95) for _ in range(2))
        c = rng.uniform(0.1, 10)
        lhs = indicator_eval(phi, y)
        rhs = indicator_eval(phi, tuple(abs(v) ** c for v in y)) / c
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_duality_round_trip():
    # at points with rational log-moduli the indicator value equals the
    # negated directional density in the reflected direction, exactly
    S = es((2, 0), (1, 1), (0, 3))
    phi = Indicator.of(S.points)
    for q in [(F(-1), F(-2)), (F(-3, 2), F(-1, 3)), (F(-2), F(-2))]:
        exact = max(
            sum(Jk * qk for Jk, qk in zip(J, q)) for J in S.points
        )
        direction = tuple(-x for x in q)
        assert exact == -directional_lelong_exact(S, direction).value
        y = tuple(math.exp(float(qk)) for qk in q)
        assert indicator_eval(phi, y) == pytest.approx(float(exact), abs=1e-12)


# ---------------------------------------------------------------------------
# directional


def test_directional_examples():
    assert directional_lelong_exact(es((2, 0), (0, 3)), (1, 1)).value == 2
    assert directional_lelong_exact(es((2, 0), (0, 3)), (3, 1)).value == 3
    a = (F(5, 3), F(7, 2))
    assert directional_lelong_exact(es((1, 1)), a).value == a[0] + a[1]


def test_directional_validation():
    with pytest.raises(ValueError, match="positive"):
        directional_lelong_exact(es((1, 0), (0, 1)), (1, 0))
    with pytest.raises(ValueError, match="positive"):
        directional_lelong_exact(es((1, 0), (0, 1)), (1, -2))


def test_directional_homogeneous_in_direction():
    rng = random.Random(2)
    for _ in range(30):
        S = _random_exponent_set(rng, 2)
        a = (F(rng.randint(1, 9), 3), F(rng.randint(1, 9), 3))
        c = F(rng.randint(1, 7), rng.randint(1, 5))
        v1 = directional_lelong_exact(S, a).value
        v2 = directional_lelong_exact(S, tuple(c * x for x in a)).value
        assert v2 == c * v1


def test_lelong_value_invariants():
    with pytest.raises(ValueError):
        LelongValue(F(-1), "directional")
    with pytest.raises(ValueError):
        LelongValue(F(1), "other")


# ---------------------------------------------------------------------------
# generalized


def test_simplex_weight_identity():
    # pairing against the simplex weight of a recovers the directional
    # density divided by the product of the entries of a, exactly
    rng = random.Random(41)
    for _ in range(60):
        n = rng.choice((2, 3))
        S_u = _random_exponent_set(rng, n)
        a = tuple(F(rng.randint(1, 12), 3) for _ in range(n))
        lhs = generalized_lelong_exact(S_u, simplex_weight(a)).value
        prod = math.prod(a)
        assert lhs * prod == directional_lelong_exact(S_u, a).value


def test_generalized_self_pairing_forced_value():
    S = es((2, 0), (0, 3))
    assert generalized_lelong_exact(S, S).value == 6


def test_generalized_monomial_against_triangle():
    assert generalized_lelong_exact(es((1, 1)), es((4, 0), (1, 1), (0, 4))).value == 8


def test_generalized_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        generalized_lelong_exact(es((1, 0)), es((1, 0, 0)))


def test_generalized_degenerate_weight_propagates():
    with pytest.raises(DegenerateIndicatorError):
        generalized_lelong_exact(es((1, 1)), es((2, 0)))


def test_comparison_monotonicity_in_function_slot():
    # adding generators to u can only lower the minimum of the linear
    # forms, hence the generalized density
    rng = random.Random(13)
    for _ in range(25):
        S1 = _random_exponent_set(rng, 2)
        extra = _random_exponent_set(rng, 2)
        S2 = ExponentSet.of(list(S1.points) + list(extra.points))
        phi = es((1, 0), (0, 1), (2, 1))
        v1 = generalized_lelong_exact(S1, phi).value
        v2 = generalized_lelong_exact(S2, phi).value
        # hypothesis check on the atom directions of the weight
        for t0, _m in gamma_measure(phi).atoms:
            a = tuple(-x for x in t0)
            assert S2.min_support(a) <= S1.min_support(a)
        assert v2 <= v1


def test_comparison_monotonicity_in_weight_slot():
    # enlarging the weight's generator set raises the weight pointwise,
    # which can only shrink the density
    rng = random.Random(19)
    for _ in range(25):
        phi1 = ExponentSet.of(
            [(F(rng.randint(1, 4)), F(0)), (F(0), F(rng.randint(1, 4)))]
        )
        extra = tuple(F(rng.randint(1, 4)) for _ in range(2))
        phi2 = ExponentSet.of(list(phi1.points) + [extra])
        S_u = _random_exponent_set(rng, 2)
        assert (
            generalized_lelong_exact(S_u, phi2).value
            <= generalized_lelong_exact(S_u, phi1).value
        )


def test_sub_diagram_never_decreases():
    # dropping generators of u (a sub-diagram) never decreases the value
    rng = random.Random(29)
    for _ in range(25):
        S = _random_exponent_set(rng, 2, max_points=5)
        if len(S.points) < 2:
            continue
        keep = rng.sample(S.points, rng.randint(1, len(S.points) - 1))
        sub = ExponentSet.of(keep)
        phi = es((1, 0), (0, 1))
        assert (
            generalized_lelong_exact(sub, phi).value
            >= generalized_lelong_exact(S, phi).value
        )


# ---------------------------------------------------------------------------
# newton numbers and tau


def test_newton_number_values():
    assert newton_number(es((2, 0), (0, 3))).value == 6
    assert newton_number(es((1, 0), (0, 1))).value == 1
    assert newton_number(es((4, 0), (1, 1), (0, 4))).value == 8


def test_newton_number_equals_self_pairing():
    # every atom t0 has min_J <J, -t0> = 1, so the self-pairing sums the masses
    rng = random.Random(53)
    families = [simplex_weight(tuple(F(rng.randint(1, 12), 3) for _ in range(n))) for n in (2, 3, 4)]
    families += [_random_exponent_set(rng, rng.choice((2, 3))) for _ in range(40)]
    for S in families:
        try:
            nn = newton_number(S).value
        except DegenerateIndicatorError:
            with pytest.raises(DegenerateIndicatorError):
                generalized_lelong_exact(S, S)
            continue
        assert nn == generalized_lelong_exact(S, S).value


def test_newton_number_kind():
    assert newton_number(es((1, 0), (0, 1))).kind == "newton_number"


def test_tau_values():
    assert tau(es((1, 0), (0, 1)), 1).value == 1
    assert tau(es((2, 0), (0, 3)), 1).value == 3
    assert tau(es((2, 0), (0, 3)), 2).value == 2


def test_tau_axis_validation():
    with pytest.raises(ValueError, match="out of range"):
        tau(es((1, 0), (0, 1)), 3)
