"""The double-description kernel against brute force and mixed covolumes."""

from fractions import Fraction as F
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lelong.exactgeom import _bareiss, dot, double_description
from lelong.indicator_calculus import generalized_lelong_exact
from lelong.poly_geom import (
    DegenerateIndicatorError,
    ExponentSet,
    cone_volume,
    dominated_hull,
    dual_face,
    gamma_measure,
    sublevel_vertices,
)

from exact_oracles import fraction_eliminate, solve

# ---------------------------------------------------------------------------
# elimination


def _leibniz(rows):
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


_entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(_entry, min_size=n, max_size=n),
    )
))
def test_elimination_determinant_and_solution(system):
    rows, rhs = system
    ints = [[int(6 * x) for x in r] for r in rows]  # every denominator divides 6
    m, pivots, det = _bareiss([list(r) for r in ints], full=True)
    assert (m, pivots, F(det)) == fraction_eliminate(ints)
    det = F(det, 6 ** len(rows))
    assert det == _leibniz(rows)
    x = solve(rows, rhs)
    if det == 0:
        assert x is None
    else:
        assert [dot(r, x) for r in rows] == rhs


def test_elimination_rank_and_pivots():
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    m, pivots, det = _bareiss([list(r) for r in rows], full=True)
    assert pivots == [0, 2]
    assert det == 0
    assert (m, pivots, F(det)) == fraction_eliminate(rows)
    # (1/2, 1/3) and (1/4, 1/5) times 6 and 20: det 120 (1/10 - 1/12)
    assert _bareiss([[3, 2], [5, 4]], full=True)[2] == 2


# ---------------------------------------------------------------------------
# the double description of a cone


def test_double_description_of_the_cone_over_a_square():
    # {(x, y, z) : |x| <= z, |y| <= z}: four rays (+-1, +-1, 1)
    rows = [(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)]
    rays = double_description(rows, 3)
    assert [ray for ray, _ in rays] == [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    assert dict(rays)[(1, 1, 1)] == frozenset({0, 2})


def _brute_rays(rows, d):
    """Extreme rays from every (d-1)-subset of rows with a one-dimensional kernel."""
    if len(fraction_eliminate(rows)[1]) < d:
        return []
    found = {}
    for subset in combinations(rows, d - 1):
        m, pivots, _ = fraction_eliminate(subset)
        if len(pivots) < d - 1:
            continue
        free = next(j for j in range(d) if j not in pivots)
        v = [0] * d
        v[free] = m[0][pivots[0]] if pivots else 1
        for k, col in enumerate(pivots):
            v[col] = -m[k][free]
        for ray in (v, [-x for x in v]):
            values = [dot(r, ray) for r in rows]
            if all(x <= 0 for x in values):
                g = gcd(*ray)
                found[tuple(x // g for x in ray)] = frozenset(
                    i for i, x in enumerate(values) if x == 0
                )
    return sorted(found.items())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(3, 5).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.lists(st.integers(-1, 1), min_size=d, max_size=d), min_size=d, max_size=9),
    )
))
def test_double_description_matches_brute_force(cone):
    # entries in {-1, 0, 1} make degenerate cones, where adjacency is
    # more than a count of shared rows
    d, rows = cone
    assert double_description(rows, d) == _brute_rays(rows, d)


def test_double_description_without_a_vertex():
    assert double_description([(1, 0, 0), (0, 1, 0)], 3) == []  # a line
    assert double_description([(1,), (-1,)], 1) == []  # the zero cone


# ---------------------------------------------------------------------------
# Newton diagrams against brute force


def _gens(n):
    point = st.tuples(*[st.builds(F, st.integers(0, 6), st.sampled_from((1, 2)))] * n)
    return st.lists(point.filter(any), min_size=1, max_size=7 if n < 4 else 5, unique=True)


def _with_axes(n):
    return st.tuples(_gens(n), st.lists(st.integers(1, 8), min_size=n, max_size=n)).map(
        lambda g: g[0] + [tuple(F(a if i == k else 0) for i in range(n)) for k, a in enumerate(g[1])]
    )


_sets = st.integers(2, 4).flatmap(lambda n: st.one_of(_gens(n), _with_axes(n)))


def _brute_vertices(S):
    """Vertices of {t <= 0 : <J, t> <= -1} by n-subset solves and a feasibility filter."""
    n = S.dimension
    cons = [(J, F(-1)) for J in S.points]
    cons += [(tuple(F(int(i == k)) for i in range(n)), F(0)) for k in range(n)]
    found = set()
    for subset in combinations(cons, n):
        t = solve([a for a, _ in subset], [b for _, b in subset])
        if t is not None and all(dot(a, t) <= b for a, b in cons):
            found.add(t)
    return sorted(found)


def _brute_hull(S, verts):
    """J is a hull vertex iff a relative-interior point of its face of the
    sublevel polyhedron satisfies every other constraint strictly."""
    n = S.dimension
    hull = []
    for J in S.points:
        on = [t for t in verts if dot(J, t) == -1]
        if not on:
            continue
        c = [sum(t[k] for t in on) / len(on) - (J[k] == 0) for k in range(n)]
        if all(x < 0 for x in c) and all(dot(q, c) < -1 for q in S.points if q != J):
            hull.append(J)
    return tuple(hull)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_sets)
@example([(F(1), F(0))])  # no generator on axis 2
@example([(F(1), F(1))])  # one wall-touching face
@example([(F(4), F(0)), (F(2), F(2)), (F(0), F(4))])  # a generator inside an edge
@example([(F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(1), F(0), F(1))])
def test_diagram_matches_brute_force(points):
    S = ExponentSet.of(points)
    verts = _brute_vertices(S)
    hull = _brute_hull(S, verts)
    faces = [
        (t0, tuple(J for J in hull if dot(J, t0) == -1)) for t0 in verts if all(x < 0 for x in t0)
    ]
    H = dominated_hull(S)
    assert H.hull_vertices == hull
    assert [(f.normal, f.vertices) for f in H.bounded_faces] == faces

    if any(all(J[k] == 0 for J in S.points) for k in range(S.dimension)):
        for fn in (sublevel_vertices, gamma_measure):
            with pytest.raises(DegenerateIndicatorError):
                fn(S)
        return
    assert list(sublevel_vertices(S).extreme_points) == verts
    atoms = []
    for t0 in verts:
        face = tuple(J for J in hull if dot(J, t0) == -1)
        assert dual_face(S, t0) == face
        mass = cone_volume(face, S.dimension)
        if mass > 0:
            atoms.append((t0, mass))
    assert list(gamma_measure(S).atoms) == atoms


# ---------------------------------------------------------------------------
# mixed covolumes in two dimensions


def _covolume(points):
    """Area of R_+^2 below conv(points) + R_+^2, by the shoelace formula.

    The lower-left boundary runs along the lower convex hull from the
    lowest point on the y-axis to the leftmost point on the x-axis.
    """
    chain = []
    for p in sorted(set(points)):
        while len(chain) >= 2 and (
            (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
            - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
        ) <= 0:
            chain.pop()
        chain.append(p)
    ring = [(F(0), F(0))] + chain[: next(i for i, p in enumerate(chain) if p[1] == 0) + 1]
    return abs(sum(
        ring[i][0] * ring[i - 1][1] - ring[i - 1][0] * ring[i][1] for i in range(len(ring))
    )) / 2


_convenient_2d = _with_axes(2).map(lambda pts: sorted(set(pts)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_convenient_2d, _convenient_2d)
@example([(F(1), F(0)), (F(0), F(1))], [(F(2), F(0)), (F(0), F(3))])
def test_generalized_lelong_is_a_mixed_covolume(A, B):
    total = [tuple(a + b for a, b in zip(p, q)) for p in A for q in B]
    mixed = _covolume(total) - _covolume(A) - _covolume(B)
    assert generalized_lelong_exact(ExponentSet.of(A), ExponentSet.of(B)).value == mixed
