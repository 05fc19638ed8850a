"""The closed-form torus mean where one Newton-vertex term dominates.

Checked against Jensen's formula in one variable, against fine grids in
two and three, and on the points it must send to the grid: a dominant
term inside the Newton polytope, exact ties, and ties that round below
the threshold.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import grid_oracles
from lelong import numeric_oracle
from lelong.numeric_oracle import CLIP_FLOOR, _closed_mean, sphere_mean, torus_mean
from lelong.weights import MaxOf, PolyLog, Scale, _log_rows, _peak_shift


def accepted(w, t) -> bool:
    return not np.isnan(grid_oracles.dominant_only(w, t))


def dominance_sum(w, t) -> float:
    """sum_j exp(g_j - peak), the quantity the test compares with 2."""
    log_c = np.array([math.log(abs(c)) for c, _ in w.terms])
    exps = np.array([J for _, J in w.terms], dtype=float)
    return float(_peak_shift(_log_rows(log_c, exps, t))[1].sum())


def jensen_mean(coeffs: dict[int, complex], t: float) -> float:
    """Mean of log|sum_j c_j z^j| over |z| = e^t, from the roots."""
    d = max(coeffs)
    roots = np.roots([coeffs.get(j, 0) for j in range(d, -1, -1)])
    return math.log(abs(coeffs[d])) + sum(max(t, math.log(abs(r))) if r else t for r in roots)


def test_one_variable_means_match_jensen():
    # every point: the dominance test takes most of them, and the rank-one
    # form of tests/test_line_mean.py the rest
    rng = random.Random(3)
    hits = 0
    for _ in range(3000):
        d = rng.randint(1, 6)
        support = sorted({0, d} | {j for j in range(1, d) if rng.random() < 0.6})
        coeffs = {j: complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.uniform(-2, 2)
                  for j in support}
        w = PolyLog.of([(c, (j,)) for j, c in coeffs.items()])
        t = -rng.uniform(0.05, 4.0)
        hits += accepted(w, (t,))
        assert torus_mean(w, (t,), 64) == pytest.approx(jensen_mean(coeffs, t), abs=1e-12)
    # the dominance test takes most points of this mix, so its check is not vacuous
    assert 1500 < hits < 3000


def _random_polylog(rng: random.Random, n: int, terms: int, top: int) -> PolyLog:
    exps = set()
    while len(exps) < terms:
        exps.add(tuple(rng.randint(0, top) for _ in range(n)))
    return PolyLog.of([(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), J) for J in sorted(exps)])


@pytest.mark.parametrize("n, nodes, top, cases", [(2, 1024, 4, 6), (3, 128, 3, 3)])
def test_means_match_fine_grids(n, nodes, top, cases):
    # the reference grid converges like (s - 1)^(nodes / top) in the sum s
    # of the shifted row amplitudes, so points with s <= 1.6 are compared
    rng = random.Random(10 + n)
    done = 0
    while done < cases:
        w = _random_polylog(rng, n, rng.randint(2, 4), top)
        t = tuple(-rng.uniform(0.1, 3.0) for _ in range(n))
        if not accepted(w, t) or dominance_sum(w, t) > 1.6:
            continue
        done += 1
        grid, clipped, _ = grid_oracles.torus_grid(w, t, nodes)
        assert clipped == 0
        assert torus_mean(w, t, 64) == pytest.approx(grid, abs=1e-12)


def test_a_dominant_term_inside_the_polytope_is_rejected():
    # 1 + 3e z + e^2 z^2 at |z| = 1/e: the middle term is 3 times each of
    # the others, but its exponent is no vertex, and the roots -e^(-1)(3 +-
    # sqrt 5)/2 put one zero outside the circle
    e = math.e
    w = PolyLog.of([(1, (0,)), (3 * e, (1,)), (e * e, (2,))])
    assert dominance_sum(w, (-1.0,)) < 2
    assert not accepted(w, (-1.0,))
    want = jensen_mean({0: 1, 1: 3 * e, 2: e * e}, -1.0)
    assert want == pytest.approx(0.96242365, abs=1e-8)
    assert abs(want - math.log(3)) > 0.1
    assert torus_mean(w, (-1.0,), 256) == pytest.approx(want, abs=1e-12)


def test_exact_ties_are_rejected():
    tie = PolyLog.of([(1, (1, 0)), (1, (0, 1))])
    assert dominance_sum(tie, (-1.0, -1.0)) == 2.0
    assert not accepted(tie, (-1.0, -1.0))
    # a tie of two vertex terms at t2 + t3 = 2 t1, exact in the rationals;
    # the rounded row sums differ by a few ulp, so s rounds below 2 and
    # only the margin rejects the point
    w = PolyLog.of([(1, (3, 0, 0)), (1, (1, 1, 1))])
    t = (-26.380674357176755, -45.37022218451199, -7.391126529841522)
    assert 3 * F(t[0]) == F(t[0]) + F(t[1]) + F(t[2])
    assert dominance_sum(w, t) < 2
    assert not accepted(w, t)
    # a near tie inside the margin goes to the grid as well
    assert not accepted(tie, (-1.0, -1.0 - 1e-13))
    assert accepted(tie, (-1.0, -1.01))


def test_scaled_weights_take_the_factor():
    w = PolyLog.of([(2, (2, 0)), (1j, (0, 3)), (-0.5, (1, 1))])
    t = (-1.0, -2.0)
    base = torus_mean(w, t, 64)
    assert base == math.log(2) - 2.0
    assert torus_mean(Scale(F(3, 2), w), t, 64) == 1.5 * base
    assert torus_mean(Scale(0.25, Scale(F(3), w)), t, 64) == pytest.approx(0.75 * base, abs=1e-15)
    # trees keep the grid
    assert _closed_mean(MaxOf.of(w), t, CLIP_FLOOR) is None


def test_clip_floor_on_closed_forms():
    w = PolyLog.of([(1, (1, 0)), (0.5, (0, 1))])
    t = (-1.0, -1.0)
    # far below the floor every node is clipped, far above none
    assert grid_oracles.row_stats(Scale(F(2 * 10**6), w), t, 64) == (CLIP_FLOOR, 64**2, 64**2)
    assert grid_oracles.row_stats(Scale(F(10**5), w), t, 64) == (-10.0**5, 0, 64**2)
    # where the floor cuts through the values of the torus, the grid decides
    f = F(-CLIP_FLOOR)  # the mean is exactly the floor
    assert not accepted(Scale(f, w), t)
    assert np.isnan(_closed_mean(Scale(f, w), t, CLIP_FLOOR))
    mean, clipped, total = grid_oracles.row_stats(Scale(f, w), t, 64)
    assert 0 < clipped < total


@pytest.mark.parametrize("n, r, radial", [(2, -3.0, 16), (3, -2.0, 4)])
def test_sphere_levels_mix_closed_forms_and_grid_rows(n, r, radial):
    w = PolyLog.of([(1, (2,) + (0,) * (n - 1)), (1j, (0, 3) + (0,) * (n - 2)),
                    (-0.5, (1,) * n)])
    rows = radial ** (n - 1)
    assert 0 < grid_oracles.sphere_grid_rows(w, r, n, radial) < rows
    # the sphere mean is the mean of its rows' torus means
    profiles = numeric_oracle._equal_area_log_profiles(n, radial)
    row_means = [torus_mean(w, tuple(float(r + p.ravel()[i]) for p in profiles), 64)
                 for i in range(rows)]
    assert sphere_mean(w, r, 64, n, radial_nodes=radial) == pytest.approx(
        math.fsum(row_means) / rows, abs=1e-12)


def test_sphere_level_fully_closed_form():
    # at r = -5 every row of z1^2 + i z2^3 - z1 z2 / 2 is dominated
    w = PolyLog.of([(1, (2, 0)), (1j, (0, 3)), (-0.5, (1, 1))])
    assert grid_oracles.sphere_grid_rows(w, -5.0, 2, 16) == 0
    mean, clipped, total = numeric_oracle._sphere_levels(w, (-5.0,), 64, 2, 16)[0]
    assert (clipped, total) == (0, 16 * 64**2)
    s = (np.arange(16) + 0.5) / 16
    t1, t2 = -5.0 + 0.5 * np.log1p(-s), -5.0 + 0.5 * np.log(s)
    want = math.fsum(np.maximum(np.maximum(2 * t1, 3 * t2), t1 + t2 + math.log(0.5))) / 16
    assert mean == pytest.approx(want, abs=1e-12)
