"""Closed-form torus means: two forms behind one gate and one floor rule.

`numeric_oracle._closed_mean` unwraps the scale factors, gates on a bare
PolyLog and takes the (mean, low, high) of `_dominant_form` and then
`_line_form` through one floor rule.  `grid_oracles` keeps the means as
they were, each form with its own unwrapping, gate and rule; both must
give the same bits and the same NaN positions.  The bounds of each form
must hold at the nodes of a grid.
"""

import cmath
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grid_oracles
from lelong import numeric_oracle
from lelong.numeric_oracle import _MAX_LINE_DEGREE, CLIP_FLOOR, _dominant_form, _line_form
from lelong.weights import PolyLog, Scale, torus_values

_coefficient = st.builds(cmath.rect, st.builds(lambda e: 10.0**e, st.floats(-3, 3)), st.floats(0, 2 * math.pi))


@st.composite
def _radius(draw):
    """Mostly moderate, where a second term can weigh on the dominant one; else far out, or -inf."""
    kind = draw(st.sampled_from(("moderate", "moderate", "moderate", "far", "-inf")))
    if kind == "moderate":
        return draw(st.floats(-6, -0.01))
    return -(10.0 ** draw(st.floats(0, 6.3))) if kind == "far" else -math.inf


@st.composite
def _random_polylog(draw):
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=5, unique=True))
    return PolyLog.of([(draw(_coefficient), J) for J in exps]), n


@st.composite
def _circle_polylog(draw):
    """z^base q(z^v) with sum(v) = 0 and the roots of q on the unit circle or near it."""
    v = draw(st.sampled_from(((1, -1), (-2, 1, 1), (0, 1, -1), (3, -3))))
    d = draw(st.integers(1, 4))
    near = st.sampled_from((0.0, 0.0, 1e-9, -1e-7, 1e-3))
    roots = [cmath.rect(math.exp(draw(near)), draw(st.floats(0, 2 * math.pi))) for _ in range(d)]
    base = tuple(max(0, -x) * d for x in v)
    terms = [(complex(c), tuple(b + e * x for b, x in zip(base, v)))
             for e, c in enumerate(np.poly(roots)[::-1]) if c != 0]
    return PolyLog.of(terms), len(v)


@st.composite
def _long_line(draw):
    """Exponents on a line past _MAX_LINE_DEGREE, or a binomial that divides down to degree 1."""
    n = draw(st.integers(1, 3))
    v = draw(st.tuples(*[st.integers(0, 2)] * n).filter(any))
    top = _MAX_LINE_DEGREE + draw(st.integers(1, 40))
    inner = set() if draw(st.booleans()) else {1, *draw(st.lists(st.integers(2, top - 1), max_size=2))}
    degrees = sorted({0, top} | inner)
    return PolyLog.of([(draw(_coefficient), tuple(e * x for x in v)) for e in degrees]), n


def within_ulps(x: float, k: int) -> list[float]:
    """The 2k + 1 floats from k ulps below x > 0 to k ulps above it, in order."""
    near = [x]
    for _ in range(k):
        near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], math.inf)]
    return near


@st.composite
def closed_cases(draw):
    kind = draw(st.sampled_from(("random", "circle", "circle", "long line")))
    w, n = draw({"random": _random_polylog(), "circle": _circle_polylog(), "long line": _long_line()}[kind])
    rows = draw(st.integers(1, 4))
    if kind == "circle":  # the diagonal, where s = <v, t> = 0, and just off it
        r = [draw(_radius()) for _ in range(rows)]
        t = [[x + draw(st.sampled_from((0.0, 0.0, 1e-12, 1e-4))) for x in r] for _ in range(n)]
    else:
        axes = max(1, n + draw(st.sampled_from((-1, 0, 0, 1))))
        t = [[draw(_radius()) for _ in range(rows)] for _ in range(axes)]
    t = [np.array(x) for x in t]
    scale = draw(st.sampled_from(("none", "random", "floor", "floor")))
    factor = 1.0
    if scale == "random":
        factor = 10.0 ** draw(st.floats(-2, math.log10(2e5)))
    elif scale == "floor" and len(t) >= n:
        # a factor that puts one row's mean, low or high within a few ulps
        # of the floor, taken from the form that decides that row: k ulps
        # from one that puts it on the floor, where there is one
        i = draw(st.integers(0, rows - 1))
        forms = [f for f in (_dominant_form(w.terms, t), _line_form(w.terms, t)) if f is not None]
        form = next((f for f in forms if not np.isnan(np.broadcast_to(f[0], (rows,))[i])), forms[-1])
        target = float(np.broadcast_to(form[draw(st.integers(0, 2))], (rows,))[i])
        if target < 0 and math.isfinite(target) and CLIP_FLOOR / target < 1e300:
            near = within_ulps(CLIP_FLOOR / target, 4)
            exact = next((j for j, f in enumerate(near) if f * target == CLIP_FLOOR), 4)
            factor = near[min(8, max(0, exact + draw(st.sampled_from((0, 0, 0, 0, -1, 1, -2, 2)))))]
    if factor != 1.0:
        w = Scale(factor, w)
        if draw(st.booleans()):
            w = Scale(1.0, w)
    return w, t


def assert_same_bits(got, want):
    """Both None, or arrays of one shape with NaN at the same places and the same float.hex elsewhere."""
    if want is None:
        assert got is None
        return
    assert np.shape(got) == np.shape(want)
    assert (np.isnan(got) == np.isnan(want)).all()
    assert [float(x).hex() for x in np.ravel(got)] == [float(x).hex() for x in np.ravel(want)]


def on_the_floor(w, t, form, index):
    """(Scale(f, w), t') with f times the form's mean, low or high (index 0, 1, 2) at t' exactly CLIP_FLOOR.

    t' is the first of t, t + 1e-3 e_1, t + 2e-3 e_1, ... where the
    factors within 4 ulps of CLIP_FLOOR / value hit the floor exactly.
    """
    for k in range(100):
        tk = [t[0] + k * 1e-3, *t[1:]]
        target = float(form(w.terms, tk)[index][0])
        exact = [f for f in within_ulps(CLIP_FLOOR / target, 4) if f * target == CLIP_FLOOR]
        if exact:
            return Scale(exact[0], w), tk
    raise ValueError("no factor puts the value on the floor")


# a rank-2 trinomial whose dominant term leaves s = 1.23, and a
# homogeneous trinomial along (1, 1), where only the line form holds:
# their low and high on the floor, with the mean above it and below it
W2 = PolyLog.of([(1, (2, 0)), (1j, (0, 3)), (-0.5, (1, 1))])
H3 = PolyLog.of([(1.602243 - 0.683664j, (5, 0)), (-1.445208 + 0.547212j, (0, 5)),
                 (-0.196739 + 1.285939j, (1, 4))])
W2_T, H3_T = [np.array([-3.0]), np.array([-1.0])], [np.array([-1.0]), np.array([-1.0])]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(closed_cases())
@example(on_the_floor(W2, W2_T, _dominant_form, 1))
@example(on_the_floor(W2, W2_T, _dominant_form, 2))
@example(on_the_floor(H3, H3_T, _line_form, 1))
@example(on_the_floor(H3, H3_T, _line_form, 2))
def test_one_floor_rule_gives_the_bits_of_a_rule_per_form(case):
    w, t = case
    assert_same_bits(numeric_oracle._closed_mean(w, t, CLIP_FLOOR), grid_oracles._closed_mean(w, t, CLIP_FLOOR))
    # the dominant form alone, which the tests read as a row's kind
    assert_same_bits(grid_oracles.dominant_only(w, t), grid_oracles._dominant_mean(w, t, CLIP_FLOOR))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(_random_polylog(), _circle_polylog()), st.lists(st.floats(-3, -0.05), min_size=3, max_size=3))
def test_each_form_bounds_the_values_at_the_nodes(case, radii):
    w, n = case
    nodes = 64 if n < 3 else 16
    t = [np.array(x) for x in radii[:n]]
    theta = numeric_oracle._theta_grids(n, nodes)
    values = torus_values(w, [x.reshape((1,) * (n + 1)) for x in t], theta)
    low_value, high_value = values.min(), values.max()
    for form in (_dominant_form(w.terms, t), _line_form(w.terms, t)):
        if form is None:
            continue
        _, low, high = form
        tol = 1e-9 * (1.0 + abs(high_value))
        # NaN bounds (2 - s <= 0) compare false and bound nothing
        assert not low > low_value + tol
        assert not high < high_value - tol
