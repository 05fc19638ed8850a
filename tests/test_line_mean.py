"""The Jensen closed form for torus means of rank-one polynomials.

A polynomial whose exponents lie on one line has the torus mean of a
univariate polynomial.  Checked against an independent 1-D quadrature
of the pushed-forward measure (`grid_oracles.line_mean_ref`) on ties of
homogeneous weights, against log max(|a| e^<J_a, t>, |b| e^<J_b, t>) on
binomials, and on the points it must leave to the grid: rank 2, a root
on the circle, the clip floor and the degree limit.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import grid_oracles
from lelong import numeric_oracle
from lelong.numeric_oracle import (CLIP_FLOOR, _closed_mean, _dominant_form, _line_form, sphere_mean,
                                   torus_mean)
from lelong.weights import PolyLog, Scale

# homogeneous weights: every exponent difference is a multiple of (-1, 1),
# and along (1, 1) all terms have one modulus up to their coefficients
H3 = PolyLog.of([(1.602243 - 0.683664j, (5, 0)), (-1.445208 + 0.547212j, (0, 5)),
                 (-0.196739 + 1.285939j, (1, 4))])
H4 = PolyLog.of([(0.9 + 0.2j, (4, 0)), (-1.1j, (3, 1)), (0.7 - 0.8j, (1, 3)), (1.2, (0, 4))])
# exponents on the line (2, 1, 0) + k (-1, 0, 1), tied along (1, 1, 1)
L3 = PolyLog.of([(1.0, (2, 1, 0)), (-1.3 + 0.4j, (1, 1, 1)), (0.8j, (0, 1, 2))])


def line_form(w, t) -> bool:
    """True where the dominance test leaves t to the rank-one form and it takes it."""
    return bool(np.isnan(grid_oracles.dominant_only(w, t)) and not np.isnan(_closed_mean(w, t, CLIP_FLOOR)))


@pytest.mark.parametrize("w, a", [(H3, (1, 1)), (H4, (1, 1)), (L3, (1, 1, 1)), (L3, (2, 1, 2))])
def test_ties_match_a_fine_one_dimensional_rule(w, a):
    for r in (-0.5, -2.0, -30.0):
        t = tuple(r * x for x in a)
        assert line_form(w, t)
        want = grid_oracles.line_mean_ref(w, t, 2**16)
        assert torus_mean(w, t, 64) == pytest.approx(want, abs=1e-12)
        assert torus_mean(Scale(F(3, 7), w), t, 64) == pytest.approx(3 / 7 * want, abs=1e-12)


def test_binomials_take_their_larger_term():
    rng = random.Random(5)
    taken = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        Ja = tuple(rng.randint(0, 3) for _ in range(n))
        # half the time the second exponent lies above the first: no vertex
        Jb = tuple(j + rng.randint(0, 3) for j in Ja) if rng.random() < 0.5 else \
            tuple(rng.randint(0, 40) for _ in range(n))
        if Jb == Ja:
            continue
        a, b = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.uniform(-3, 3) for _ in "ab")
        w = PolyLog.of([(a, Ja), (b, Jb)])
        t = tuple(-rng.uniform(0.01, 5.0) for _ in range(n))
        ga = math.log(abs(a)) + sum(j * x for j, x in zip(Ja, t))
        gb = math.log(abs(b)) + sum(j * x for j, x in zip(Jb, t))
        if abs(ga - gb) < 1e-3:  # a root near the circle keeps the grid
            continue
        taken += line_form(w, t)
        assert torus_mean(w, t, 64) == pytest.approx(max(ga, gb), rel=1e-12, abs=0)
    assert taken > 25


def test_binomial_exactly_tied_keeps_the_grid_and_its_clip_counts():
    # the root of 1 + x lies on the circle |x| = e^0
    tie = PolyLog.of([(1, (1, 0)), (1, (0, 1))])
    t = (-1.0, -1.0)
    assert _line_form(tie.terms, t)[1] == -np.inf
    assert np.isnan(_closed_mean(tie, t, CLIP_FLOOR))
    clipping = Scale(F(500000), tie)
    assert np.isnan(_closed_mean(clipping, t, CLIP_FLOOR))
    stats = grid_oracles.row_stats(clipping, t, 64)
    grid = grid_oracles.torus_grid(clipping, t, 64)
    assert stats == grid
    assert 0 < stats[1] < stats[2]


def test_rank_two_weights_keep_nan_rows():
    smyth = PolyLog.of([(1, (0, 0)), (1, (1, 0)), (1, (0, 1))])
    generic = PolyLog.of([(1, (2, 0)), (1j, (0, 3)), (-0.5, (1, 1))])
    for w, t in ((smyth, (-0.1, -0.2)), (generic, (-1.0, -0.7))):
        assert numeric_oracle._rank_one(w.terms) is None
        assert _line_form(w.terms, t) is None
        assert np.isnan(_closed_mean(w, t, CLIP_FLOOR))


def test_a_root_out_of_float_range_keeps_the_grid():
    # the root -1e-600 underflows to 0
    w = PolyLog.of([(1e-300, (0,)), (1e300, (1,))])
    assert numeric_oracle._rank_one(w.terms) is None
    assert _line_form(w.terms, (-1.0,)) is None


def test_sphere_rows_take_the_rank_one_form():
    # every radial row of H3 at r = -1 has a closed form, some of them Jensen's
    profiles = numeric_oracle._equal_area_log_profiles(2, 16)
    rows = [tuple(float(-1.0 + p.ravel()[i]) for p in profiles) for i in range(16)]
    assert grid_oracles.sphere_grid_rows(H3, -1.0, 2, 16) == 0
    assert sum(line_form(H3, t) for t in rows) >= 3
    want = math.fsum(grid_oracles.line_mean_ref(H3, t, 2**16) for t in rows) / 16
    assert sphere_mean(H3, -1.0, 64, 2, radial_nodes=16) == pytest.approx(want, abs=1e-12)


def test_a_line_above_the_degree_limit_keeps_the_grid(monkeypatch):
    numeric_oracle._rank_one.cache_clear()

    def no_roots(p):
        raise AssertionError("numpy.roots called above the degree limit")

    monkeypatch.setattr(np, "roots", no_roots)
    top = numeric_oracle._MAX_LINE_DEGREE + 1
    w = PolyLog.of([(1, (0,)), (1, (1,)), (1, (top,))])
    t = (-0.01,)
    assert np.isnan(_dominant_form(w.terms, t)[0])
    assert numeric_oracle._rank_one(w.terms) is None
    assert np.isnan(_closed_mean(w, t, CLIP_FLOOR))
    grid = grid_oracles.torus_grid(w, t, 64)
    assert grid_oracles.row_stats(w, t, 64) == grid


def test_degree_limit_is_inclusive(monkeypatch):
    numeric_oracle._rank_one.cache_clear()
    degrees = []

    def unit_roots(p):
        degrees.append(len(p) - 1)
        return np.full(len(p) - 1, 2.0)

    monkeypatch.setattr(np, "roots", unit_roots)
    top = numeric_oracle._MAX_LINE_DEGREE
    line = numeric_oracle._rank_one(PolyLog.of([(1, (0,)), (1, (1,)), (1, (top,))]).terms)
    assert degrees == [top] and line.log_roots.size == top
    # a common factor of the degrees divides out: a binomial is of degree 1
    far = PolyLog.of([(1, (0, 2 * top)), (2, (2 * top, 0))])
    assert numeric_oracle._rank_one(far.terms).log_roots.size == 1
    assert degrees == [top, 1]
    numeric_oracle._rank_one.cache_clear()


def test_a_binomial_of_high_degree_is_one_step():
    top = 4 * numeric_oracle._MAX_LINE_DEGREE
    far = PolyLog.of([(1, (0, top)), (2, (top, 0))])
    t = (-1.0, -1.0 - 1e-3)
    mean, low, high = _line_form(far.terms, t)
    assert float(mean) == pytest.approx(math.log(2) - top, rel=1e-12, abs=0)
    assert CLIP_FLOOR <= low <= mean <= high


def test_the_floor_inside_the_values_keeps_the_grid():
    # e^-2 (1 + 3e z + e^2 z^2) at t = -1: the dominance test rejects it,
    # and Jensen's mean 0.96242365 - 2 sits on the floor once scaled
    w = PolyLog.of([(math.exp(-2), (0,)), (3 * math.exp(-1), (1,)), (1.0, (2,))])
    assert np.isnan(_dominant_form(w.terms, (-1.0,))[0])
    mean = float(_closed_mean(w, (-1.0,), CLIP_FLOOR))
    assert mean == pytest.approx(grid_oracles.line_mean_ref(w, (-1.0,), 2**16), abs=1e-12)
    scaled = Scale(CLIP_FLOOR / mean, w)
    assert np.isnan(_closed_mean(scaled, (-1.0,), CLIP_FLOOR))
    _, clipped, total = grid_oracles.row_stats(scaled, (-1.0,), 256)
    assert 0 < clipped < total
    # far below the floor every node clips, and the closed form says so
    deep = Scale(F(10**7), w)
    assert float(_closed_mean(deep, (-1.0,), CLIP_FLOOR)) < CLIP_FLOOR
    assert grid_oracles.row_stats(deep, (-1.0,), 64) == (CLIP_FLOOR, 64, 64)


def test_means_are_bit_identical_after_the_cache_is_cleared():
    t = (-2.0, -2.0)
    first = torus_mean(H4, t, 64)
    info = numeric_oracle._rank_one.cache_info()
    assert info.currsize >= 1
    numeric_oracle._rank_one.cache_clear()
    again = torus_mean(H4, t, 64)
    assert again.hex() == first.hex()
    line = numeric_oracle._rank_one(H4.terms)
    assert not line.log_roots.flags.writeable
