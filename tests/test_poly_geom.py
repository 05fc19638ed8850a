import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from lelong import exactgeom, poly_geom
from lelong.exactgeom import BudgetExceeded, dot, vec
from lelong.poly_geom import (
    DegenerateIndicatorError,
    ExponentSet,
    cone_volume,
    dominated_hull,
    dual_face,
    gamma_measure,
    sublevel_vertices,
)
from exact_oracles import complement_volume, solve


def es(*points):
    return ExponentSet.of(points)


# ---------------------------------------------------------------------------
# construction and validation


def test_exponent_set_validation():
    with pytest.raises(ValueError):
        ExponentSet.of([])
    with pytest.raises(ValueError, match="dimension mismatch"):
        ExponentSet.of([(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="negative"):
        ExponentSet.of([(1, -1)])
    with pytest.raises(ValueError, match="zero vector"):
        ExponentSet.of([(0, 0)])
    assert es((1, 0), (1, 0)).points == ((F(1), F(0)),)  # duplicates collapse


# ---------------------------------------------------------------------------
# dominated hull


def test_hull_two_points():
    h = dominated_hull(es((2, 0), (0, 3)))
    assert set(h.hull_vertices) == {vec((2, 0)), vec((0, 3))}
    assert len(h.bounded_faces) == 1
    assert set(h.bounded_faces[0].vertices) == {vec((2, 0)), vec((0, 3))}


def test_hull_drops_dominated_point():
    h = dominated_hull(es((1, 0), (0, 1), (1, 1)))
    assert set(h.hull_vertices) == {vec((1, 0)), vec((0, 1))}


def test_hull_three_vertices_two_faces():
    h = dominated_hull(es((4, 0), (1, 1), (0, 4)))
    assert set(h.hull_vertices) == {vec((4, 0)), vec((1, 1)), vec((0, 4))}
    face_sets = {frozenset(f.vertices) for f in h.bounded_faces}
    assert face_sets == {
        frozenset({vec((4, 0)), vec((1, 1))}),
        frozenset({vec((1, 1)), vec((0, 4))}),
    }


def test_hull_drops_point_inside_edge():
    # (2,2) sits on the segment between (4,0) and (0,4): not a vertex
    h = dominated_hull(es((4, 0), (2, 2), (0, 4)))
    assert set(h.hull_vertices) == {vec((4, 0)), vec((0, 4))}


def _dominated_by_pairs(p, others):
    """Brute-force n=2 test: p in conv(pair) + R_+^2 for some pair or point."""
    for q in others:
        if all(a <= b for a, b in zip(q, p)):
            return True
    for q1 in others:
        for q2 in others:
            # need lam in [0,1] with lam*q1 + (1-lam)*q2 <= p, per coordinate
            lo, hi = F(0), F(1)
            ok = True
            for k in range(2):
                c = q1[k] - q2[k]
                rhs = p[k] - q2[k]
                if c == 0:
                    if rhs < 0:
                        ok = False
                        break
                elif c > 0:
                    hi = min(hi, rhs / c)
                else:
                    lo = max(lo, rhs / c)
            if ok and lo <= hi:
                return True
    return False


def test_hull_matches_pair_domination_oracle():
    rng = random.Random(11)
    for _ in range(40):
        pts = set()
        for _ in range(rng.randint(2, 6)):
            p = (F(rng.randint(0, 5)), F(rng.randint(0, 5)))
            if p != (0, 0):
                pts.add(p)
        if not pts:
            continue
        S = ExponentSet.of(pts)
        hull = set(dominated_hull(S).hull_vertices)
        expected = {
            p for p in S.points if not _dominated_by_pairs(p, [q for q in S.points if q != p])
        }
        assert hull == expected, f"S={sorted(pts)}"


def test_hull_order_invariance():
    pts = [(4, 0), (1, 1), (0, 4), (3, 3), (2, 2)]
    base = dominated_hull(ExponentSet.of(pts))
    for _ in range(5):
        random.Random(_).shuffle(pts)
        again = dominated_hull(ExponentSet.of(pts))
        assert again.hull_vertices == base.hull_vertices
        assert again.bounded_faces == base.bounded_faces


# ---------------------------------------------------------------------------
# sublevel vertices


def test_sublevel_axes():
    sub = sublevel_vertices(es((1, 0), (0, 1)))
    assert sub.extreme_points == (vec((-1, -1)),)


def test_sublevel_cusp():
    sub = sublevel_vertices(es((2, 0), (0, 3)))
    assert sub.extreme_points == (vec((F(-1, 2), F(-1, 3))),)


def test_sublevel_two_vertices():
    sub = sublevel_vertices(es((4, 0), (1, 1), (0, 4)))
    assert set(sub.extreme_points) == {
        vec((F(-1, 4), F(-3, 4))),
        vec((F(-3, 4), F(-1, 4))),
    }


def test_sublevel_wall_vertices_kept():
    sub = sublevel_vertices(es((1, 1)))
    assert set(sub.extreme_points) == {vec((-1, 0)), vec((0, -1))}


def test_sublevel_degenerate_direction():
    with pytest.raises(DegenerateIndicatorError) as err:
        sublevel_vertices(es((1, 0), (2, 0)))
    assert err.value.axis == 2
    assert "degenerate indicator" in str(err.value)


def _probe_vertices(S, grid=120):
    """Independent n=2 oracle: sweep level-set ray directions on a dense
    grid, track the active generator, and reconstruct each change of
    activity as the exact intersection of the two constraints."""
    cons = list(S.points)
    walls = [vec((1, 0)), vec((0, 1))]

    def active(d):
        vals = [(dot(J, d), J) for J in cons]
        best = max(v for v, _ in vals)
        return [J for v, J in vals if v == best]

    directions = []
    for k in range(1, grid):
        s = F(k, grid)
        directions.append(vec((-1, -s)))
    directions += [vec((-1, -1))]
    for k in range(grid - 1, 0, -1):
        s = F(k, grid)
        directions.append(vec((-s, -1)))

    found = set()

    def try_pair(r1, r2, b1, b2):
        x = solve([list(r1), list(r2)], [b1, b2])
        if x is None:
            return
        if any(t > 0 for t in x):
            return
        if all(dot(J, x) <= -1 for J in cons):
            found.add(x)

    prev = active(directions[0])
    # wall end: first active generator against the t2 = 0 wall
    for J in prev:
        try_pair(J, walls[1], F(-1), F(0))
    for d in directions[1:]:
        cur = active(d)
        for J1 in prev:
            for J2 in cur:
                if J1 != J2:
                    try_pair(J1, J2, F(-1), F(-1))
        prev = cur
    for J in prev:
        try_pair(J, walls[0], F(-1), F(0))
    return found


def test_sublevel_matches_dense_grid_probe():
    rng = random.Random(5)
    for _ in range(25):
        pts = set()
        for _ in range(rng.randint(1, 4)):
            p = (F(rng.randint(0, 4)), F(rng.randint(0, 4)))
            if p != (0, 0):
                pts.add(p)
        if not pts:
            continue
        S = ExponentSet.of(pts)
        try:
            enum = set(sublevel_vertices(S).extreme_points)
        except DegenerateIndicatorError:
            continue
        assert enum == _probe_vertices(S), f"S={sorted(pts)}"


def test_sublevel_vertices_lie_on_the_level_set():
    # the exact check that `sublevel_vertices` makes on the active rows
    # of its pass: max_J <J, t0> = -1 at every vertex, in dimensions 1..4
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        pts = {tuple(F(rng.randint(0, 5), rng.choice((1, 1, 2, 3))) for _ in range(n)) for _ in range(6)}
        pts |= {tuple(F(rng.randint(1, 6)) if i == k else F(0) for i in range(n)) for k in range(n)}
        S = ExponentSet.of(pts - {(F(0),) * n})
        vertices = sublevel_vertices(S).extreme_points
        assert vertices
        for t0 in vertices:
            assert all(x <= 0 for x in t0)
            assert max(dot(J, t0) for J in S.points) == -1


# ---------------------------------------------------------------------------
# dual faces and cone volumes


def test_dual_face_examples():
    assert set(dual_face(es((1, 0), (0, 1)), (-1, -1))) == {vec((1, 0)), vec((0, 1))}
    assert set(dual_face(es((2, 0), (0, 3)), (F(-1, 2), F(-1, 3)))) == {
        vec((2, 0)),
        vec((0, 3)),
    }
    assert set(dual_face(es((4, 0), (1, 1), (0, 4)), (F(-1, 4), F(-3, 4)))) == {
        vec((4, 0)),
        vec((1, 1)),
    }


def test_dual_face_rejects_non_vertex():
    with pytest.raises(ValueError, match="not an extreme point"):
        dual_face(es((1, 0), (0, 1)), (-2, -2))


def test_cone_volume_examples():
    assert cone_volume([(1, 0), (0, 1)], 2) == F(1, 2)
    assert cone_volume([(2, 0), (0, 3)], 2) == F(3)
    assert cone_volume([(4, 0), (1, 1)], 2) == F(2)


def test_cone_volume_degenerate_is_zero():
    assert cone_volume([(1, 1)], 2) == 0
    assert cone_volume([(1, 1), (2, 2)], 2) == 0


# ---------------------------------------------------------------------------
# gamma measure


def test_gamma_examples():
    g = gamma_measure(es((1, 0), (0, 1)))
    assert g.atoms == ((vec((-1, -1)), F(1, 2)),)
    g = gamma_measure(es((2, 0), (0, 3)))
    assert g.atoms == ((vec((F(-1, 2), F(-1, 3))), F(3)),)
    g = gamma_measure(es((4, 0), (1, 1), (0, 4)))
    assert dict(g.atoms) == {
        vec((F(-1, 4), F(-3, 4))): F(2),
        vec((F(-3, 4), F(-1, 4))): F(2),
    }
    assert g.total_mass == 4


def test_gamma_shoelace_cross_check_n2():
    # area below the diagram by the shoelace formula on the star polygon
    rng = random.Random(3)
    for _ in range(20):
        pts = {(F(rng.randint(1, 5)), F(0)), (F(0), F(rng.randint(1, 5)))}
        for _ in range(rng.randint(0, 3)):
            pts.add((F(rng.randint(1, 5)), F(rng.randint(1, 5))))
        S = ExponentSet.of(pts)
        g = gamma_measure(S)
        hull = sorted(dominated_hull(S).hull_vertices, key=lambda p: (p[0], -p[1]))
        ring = [vec((0, 0))] + hull
        area = (
            sum(
                ring[i][0] * ring[(i + 1) % len(ring)][1]
                - ring[(i + 1) % len(ring)][0] * ring[i][1]
                for i in range(len(ring))
            )
            / 2
        )
        assert g.total_mass == abs(area), f"S={sorted(pts)}"


def test_gamma_duality_consistency():
    rng = random.Random(9)
    for _ in range(20):
        pts = {(F(rng.randint(1, 5)), F(0)), (F(0), F(rng.randint(1, 5)))}
        for _ in range(rng.randint(0, 3)):
            pts.add((F(rng.randint(1, 5)), F(rng.randint(1, 5))))
        S = ExponentSet.of(pts)
        hull = dominated_hull(S).hull_vertices
        for t0, _mass in gamma_measure(S).atoms:
            face = dual_face(S, t0)
            for J in face:
                assert dot(J, t0) == -1
            for J in hull:
                if J not in face:
                    assert dot(J, t0) < -1


def _random_axis_touching(rng, n, extra=3, hi=5):
    pts = set()
    for k in range(n):
        p = [F(0)] * n
        p[k] = F(rng.randint(1, hi))
        pts.add(tuple(p))
    for _ in range(rng.randint(0, extra)):
        q = tuple(F(rng.randint(0, hi)) for _ in range(n))
        if any(x > 0 for x in q):
            pts.add(q)
    return ExponentSet.of(pts)


def test_mass_conservation_up_to_dimension_four():
    rng = random.Random(23)
    cases = [(2, 25), (3, 12), (4, 4)]
    for n, count in cases:
        for _ in range(count):
            S = _random_axis_touching(rng, n, extra=2, hi=4)
            g = gamma_measure(S)
            assert g.total_mass == sum(m for _, m in g.atoms)
            assert g.total_mass == complement_volume(S), f"n={n} S={S.points}"


def test_scale_covariance():
    rng = random.Random(31)
    for _ in range(15):
        S = _random_axis_touching(rng, 2)
        c = F(rng.randint(1, 5), rng.randint(1, 4))
        g = gamma_measure(S)
        gc = gamma_measure(ExponentSet.of([tuple(c * x for x in J) for J in S.points]))
        scaled_atoms = {tuple(x / c for x in t0): m * c**2 for t0, m in g.atoms}
        assert dict(gc.atoms) == scaled_atoms
        assert gc.total_mass == g.total_mass * c**2


def test_gamma_order_invariance():
    pts = [(3, 0), (1, 1), (0, 2), (2, 1)]
    base = gamma_measure(ExponentSet.of(pts))
    for seed in range(4):
        random.Random(seed).shuffle(pts)
        assert gamma_measure(ExponentSet.of(pts)) == base


def test_gamma_propagates_degeneracy():
    with pytest.raises(DegenerateIndicatorError):
        gamma_measure(es((2, 0)))


def test_gamma_wall_atoms_have_no_mass():
    g = gamma_measure(es((1, 1)))
    assert g.atoms == ()
    assert g.total_mass == 0


# ---------------------------------------------------------------------------
# the per-process memo of diagrams and measures


def _counting_double_description(monkeypatch) -> list:
    """Count every double-description pass, the diagram's and the cone volumes'."""
    calls = []
    dd = exactgeom.double_description

    def counting(rows, d):
        calls.append(d)
        return dd(rows, d)

    monkeypatch.setattr(exactgeom, "double_description", counting)
    monkeypatch.setattr(poly_geom, "double_description", counting)
    return calls


def test_a_float_point_raises_after_an_int_call_of_equal_value():
    poly_geom._diagram([(2, 0), (1, 1), (0, 3)], 2)
    poly_geom._measure(es((2, 0), (1, 1), (0, 3)))
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        poly_geom._diagram([(2.0, 0), (1, 1), (0, 3)], 2)
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        poly_geom._measure(ExponentSet(2, ((0.0, 3.0), (1.0, 1.0), (2.0, 0.0))))


_FORMS = [
    [(2, 0), (1, 1), (0, 3)],
    [("4/2", "0"), ("1", "1"), ("0", "3")],
    [(F(2), F(0)), (F(1), F(1)), (F(0), F(3))],
]


def _fraction_leaves(x) -> bool:
    if isinstance(x, tuple):
        return all(_fraction_leaves(y) for y in x)
    return type(x) is F


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_int_string_and_fraction_points_share_one_entry(monkeypatch, order):
    calls = _counting_double_description(monkeypatch)
    diagrams = [poly_geom._diagram(_FORMS[i], 2) for i in order]
    masses = [poly_geom._masses(_FORMS[i], 2) for i in order]
    assert len(calls) == 1  # one diagram for all six calls; the atom cones are triangles
    for results in (diagrams, masses):
        assert len({repr(r) for r in results}) == 1
    vertices, fan = diagrams[0]
    assert _fraction_leaves(vertices) and all(_fraction_leaves(J) for J, _ in fan)  # rays are ints
    assert type(fan) is tuple and all(type(rays) is tuple for _, rays in fan)  # no caller can change an entry
    assert _fraction_leaves(masses[0][0])
    assert all(type(m) is F for _, m in masses[0][1].atoms)


def test_a_set_over_the_budget_raises_on_every_call(monkeypatch):
    S = es((4, 0, 0), (0, 5, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0), (0, 2, 1))
    monkeypatch.setattr(exactgeom, "MAX_DD_WORK", 20)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            gamma_measure(S)
        with pytest.raises(BudgetExceeded):
            poly_geom._diagram(S.points, 3)
    monkeypatch.undo()
    assert gamma_measure(S).total_mass == complement_volume(S)


def test_an_equal_exponent_set_reuses_the_diagram(monkeypatch):
    calls = _counting_double_description(monkeypatch)
    pts = [(3, 0), (1, 1), (0, 2), (2, 1)]
    first = gamma_measure(ExponentSet.of(pts))
    done = len(calls)
    assert done > 0
    S = ExponentSet.of(reversed(pts))
    assert S is not ExponentSet.of(pts)
    assert gamma_measure(S) == first
    assert len(calls) == done
