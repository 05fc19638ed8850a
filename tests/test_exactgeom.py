import random
from fractions import Fraction as F

import pytest

from lelong.exactgeom import (
    frac,
    polytope_volume,
    simplex_volume,
    triangulate,
    vec,
)
from exact_oracles import enumerate_vertices, hpolytope_volume, solve


def test_solve_square_basic():
    x = solve([[F(2), F(0)], [F(0), F(3)]], [F(-1), F(-1)])
    assert x == (F(-1, 2), F(-1, 3))


def test_solve_square_singular():
    assert solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_enumerate_vertices_unit_square():
    cons = [
        ((F(1), F(0)), F(1)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(1)), F(1)),
        ((F(0), F(-1)), F(0)),
    ]
    verts = enumerate_vertices(cons, 2)
    assert verts == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]


def test_triangulate_square_covers_area():
    square = [vec(p) for p in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    simplices = triangulate(square)
    assert sum(simplex_volume(s, 2) for s in simplices) == F(1)


def test_polytope_volume_simplices():
    assert polytope_volume([(0, 0), (1, 0), (0, 1)], 2) == F(1, 2)
    assert polytope_volume([(0, 0), (2, 0), (0, 3)], 2) == F(3)
    assert polytope_volume([(0, 0), (4, 0), (1, 1)], 2) == F(2)
    assert polytope_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == F(1, 6)


def test_polytope_volume_degenerate():
    assert polytope_volume([(0, 0), (1, 1)], 2) == 0
    assert polytope_volume([(0, 0), (1, 1), (2, 2)], 2) == 0


def test_polytope_volume_nonsimplicial():
    # unit cube in 3-D, eight vertices
    cube = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    assert polytope_volume(cube, 3) == F(1)
    simplices = triangulate([vec(p) for p in cube])
    assert len(simplices) == 6  # three squares away from the apex, two triangles each
    assert all(simplex_volume(s, 3) == F(1, 6) for s in simplices)


def test_hpolytope_volume_box_and_cut():
    cons = []
    for k in range(2):
        e = tuple(F(1) if i == k else F(0) for i in range(2))
        ne = tuple(-x for x in e)
        cons += [(e, F(1)), (ne, F(0))]
    assert hpolytope_volume(cons, 2) == F(1)
    # cut off the corner x + y >= 3/2  ->  keep x + y <= 3/2
    cons.append(((F(1), F(1)), F(3, 2)))
    assert hpolytope_volume(cons, 2) == F(1) - F(1, 8)


def test_hpolytope_volume_empty():
    cons = [((F(1),), F(0)), ((F(-1),), F(-1))]  # x <= 0 and x >= 1
    assert hpolytope_volume(cons, 1) == 0


def test_hpolytope_matches_triangulation_on_random_cuts():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(12):
            cons = []
            for k in range(n):
                e = tuple(F(1) if i == k else F(0) for i in range(n))
                ne = tuple(-x for x in e)
                cons += [(e, F(1)), (ne, F(0))]
            for _ in range(rng.randint(1, 3)):
                a = tuple(F(rng.randint(-2, 3)) for _ in range(n))
                if all(x == 0 for x in a):
                    continue
                cons.append((a, F(rng.randint(1, 4), rng.randint(1, 3))))
            vol_h = hpolytope_volume(cons, n)
            verts = enumerate_vertices(cons, n)
            vol_v = polytope_volume(verts, n) if verts else F(0)
            assert vol_h == vol_v
