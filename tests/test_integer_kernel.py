"""The integer polyhedral kernel: its input contract, the Fraction kernel it
replaced as a differential oracle, the Fractions it builds, and its work budget."""

import json
import math
import re
import time
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong import demailly, exactgeom, poly_geom
from lelong.cli import main
from lelong.exactgeom import (
    MAX_DD_WORK,
    BudgetExceeded,
    _bareiss,
    _fan,
    _integer_points,
    double_description,
    polytope_volume,
)
from lelong.poly_geom import ExponentSet, cone_volume
from lelong.weights import CoordLog, MaxOf, PolyLog, Scale, indicator_support

from exact_oracles import (
    fraction_double_description,
    fraction_eliminate,
    fraction_pl_cones,
    fraction_polytope_volume,
    fraction_triangulate,
)

# ---------------------------------------------------------------------------
# input contract: what `frac` accepts, and its TypeError otherwise


@pytest.mark.parametrize("call", [
    lambda: double_description([[1, 0], [0, 0.5]], 2),
    lambda: polytope_volume([(0, 0), (0.5, 0), (0, 1)], 2),
    lambda: cone_volume([(0.5, 0), (0, 1)], 2),
], ids=["double_description", "polytope_volume", "cone_volume"])
def test_kernel_entry_points_reject_floats_like_frac(call):
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        call()


def test_kernel_entry_points_read_ints_fractions_and_strings_alike():
    assert double_description([["1/2", 0], [0, 1]], 2) == double_description([[1, 0], [0, 1]], 2)
    assert double_description([[F(1, 2), 0], [0, 1]], 2) == double_description([[1, 0], [0, 1]], 2)
    assert polytope_volume([(F(1), 0), (0, F(1, 2)), (0, 0), (1, F(1, 2)), (0, F(0))], 2) == F(1, 2)
    assert polytope_volume([("0", "0"), ("1/2", "0"), ("0", "1")], 2) == F(1, 4)


# ---------------------------------------------------------------------------
# the Fraction kernel as a differential oracle

_q = st.one_of(st.integers(-6, 6), st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 5, 6))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-36, 36), min_size=cols, max_size=cols),
                          min_size=0, max_size=4)
))
def test_eliminate_matches_the_fraction_kernel(rows):
    m, pivots, det = _bareiss([list(r) for r in rows], full=True)
    assert (m, pivots, F(det)) == fraction_eliminate(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.lists(_q, min_size=d, max_size=d), min_size=1, max_size=9))
))
def test_double_description_matches_the_fraction_kernel(cone):
    d, rows = cone
    assert double_description(rows, d) == fraction_double_description(rows, d)


@st.composite
def _point_sets(draw):
    """(n, points): points in Q^n on an affine subspace of random dimension, with repeats."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    coords = st.tuples(*[_q] * n)
    base, dirs = draw(coords), draw(st.lists(coords, min_size=k, max_size=k))
    steps = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=1, max_size=8))
    pts = [tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base)) for cs in steps]
    return n, pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_point_sets())
def test_triangulation_and_volume_match_the_fraction_kernel(case):
    n, pts = case
    ints, scale = _integer_points(pts)
    simplices = _fan(ints, scale)
    assert [tuple(tuple(F(x, scale) for x in p) for p in s) for s in simplices] == fraction_triangulate(pts)
    for m in range(n + 1):
        assert polytope_volume(pts, m) == fraction_polytope_volume(pts, m)


_exponent = st.one_of(st.integers(0, 6), st.builds(F, st.integers(0, 6), st.sampled_from((2, 3, 4))))
_gens = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[_exponent] * n), min_size=1, max_size=6)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_gens)
def test_pl_cones_match_the_fraction_cut(case):
    n, gens = case
    gens = [tuple(F(x) for x in J) for J in gens]
    assert poly_geom._pl_cones(gens, n) == tuple((tuple(V), J, det) for V, J, det in fraction_pl_cones(gens, n))


# ---------------------------------------------------------------------------
# Fractions are built only for results


def _counting_fraction():
    """A stand-in for Fraction that records every value built through it."""
    built = []

    class Meta(type(F)):
        def __call__(cls, *args):
            built.append(F(*args))
            return built[-1]

        def __instancecheck__(cls, obj):
            return isinstance(obj, F)

    return Meta("CountingFraction", (), {}), built


@pytest.mark.parametrize("points", [
    [(0, 4), (2, 2), (3, 5), (4, 1), (7, 0)],
    [(4, 0, 0), (0, 5, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0), (0, 2, 1)],
    ExponentSet.of([(0, 4), (2, 2), (3, 5), (4, 1), (7, 0)]).points,
])
def test_diagram_builds_fractions_only_for_its_vertices(monkeypatch, points):
    fake, built = _counting_fraction()
    monkeypatch.setattr(exactgeom, "Fraction", fake)
    monkeypatch.setattr(poly_geom, "Fraction", fake)
    vertices, _ = poly_geom._diagram(points, len(points[0]))
    # the memo key holds the points as Fractions: one is built per int coordinate
    key = [F(x) for p in points for x in p if not isinstance(x, F)]
    assert sorted(built) == sorted(key + [x for t0, _ in vertices for x in t0])


@pytest.mark.parametrize("points, massless", [
    ([(0, 4), (2, 2), (3, 5), (4, 1), (7, 0)], 0),
    ([(4, 0, 0), (0, 5, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0), (0, 2, 1)], 0),
    ([(4, 0, 0), (0, 5, 0), (1, 1, 1), (2, 1, 0), (0, 2, 1)], 2),
])
def test_measure_builds_fractions_only_for_its_output(monkeypatch, points, massless):
    S = ExponentSet.of(points)
    fake, built = _counting_fraction()
    monkeypatch.setattr(exactgeom, "Fraction", fake)
    monkeypatch.setattr(poly_geom, "Fraction", fake)
    vertices, gm = poly_geom._measure(S)
    mass = dict(gm.atoms)
    assert len(vertices) - len(mass) == massless
    output = [x for t0 in vertices for x in t0] + [mass.get(t0, F(0)) for t0 in vertices] + [gm.total_mass]
    assert sorted(built) == sorted(output)


@pytest.mark.parametrize("u, n", [
    (MaxOf.of(Scale(F(3, 2), CoordLog(1)), CoordLog(2)), 2),
    (MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2)), PolyLog.of([(1, (1, 1))])), 2),
    (MaxOf.of(Scale(F(4), CoordLog(1)), Scale(F(5), CoordLog(2)), Scale(F(3), CoordLog(3)),
              PolyLog.of([(1, (1, 1, 1))]), Scale(F(1, 2), PolyLog.of([(1, (2, 1, 0))]))), 3),
])
def test_pl_cones_build_fractions_only_for_the_diagram_vertices(monkeypatch, u, n):
    gens = list(indicator_support(u, n).points)
    fake, built = _counting_fraction()
    for module in (exactgeom, poly_geom, demailly):
        monkeypatch.setattr(module, "Fraction", fake)
    assert poly_geom._pl_cones(gens, n)
    vertices, _ = poly_geom._diagram(sorted(set(gens)), n)  # the memo's entry: builds nothing
    assert sorted(built) == sorted(x for t0, _ in vertices for x in t0)


@pytest.mark.parametrize("points, n, volume", [
    ([(0, 0), (4, 0), (4, 3), (0, 3), (1, 1), (4, 3)], 2, F(12)),
    ([p for p in product((0, 2), repeat=3)] + [(1, 1, 1)], 3, F(8)),
    ([(F(1, 2), 0), (0, F(1, 3)), (0, 0), (F(1, 2), F(1, 3))], 2, F(1, 6)),
    ([(0, 0), (1, 1), (2, 2)], 2, F(0)),
])
def test_polytope_volume_builds_one_fraction(monkeypatch, points, n, volume):
    fake, built = _counting_fraction()
    monkeypatch.setattr(exactgeom, "Fraction", fake)
    assert polytope_volume(points, n) == volume
    assert built == [volume]


# ---------------------------------------------------------------------------
# the work budget of the double-description pass


def test_double_description_past_its_budget_raises(monkeypatch):
    rows = [(1, 0, 0, -1), (-1, 0, 0, -1), (0, 1, 0, -1), (0, -1, 0, -1), (0, 0, 1, -1), (0, 0, -1, -1)]
    assert len(double_description(rows, 4)) == 8  # the cone over a cube
    monkeypatch.setattr(exactgeom, "MAX_DD_WORK", 20)
    errors = []
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as info:
            double_description(rows, 4)
        errors.append(info.value)
    assert isinstance(errors[0], ValueError)
    assert errors[0].limit == 20 < errors[0].count == errors[1].count
    assert str(errors[0]) == f"double description work of {errors[0].count} ray steps exceeds the limit of 20"


def test_an_oversized_diagram_is_a_task_error(tmp_path, capsys):
    # 6-D hyperbolic set: 4^5 points (x, ceil(C / prod x)) and C on each axis
    C = 36
    pts = [list(x) + [math.ceil(C / math.prod(x))] for x in product(range(1, 5), repeat=5)]
    pts += [[C * (j == k) for j in range(6)] for k in range(6)]
    prob = {
        "dimension": 6,
        "objects": {"big": {"kind": "monomial_weight", "exponents": pts},
                    "small": {"kind": "monomial_weight",  # 2 e_1, e_2, ..., e_6
                              "exponents": [[(1 + (k == 0)) * (j == k) for j in range(6)] for k in range(6)]}},
        "tasks": [{"op": "gamma_measure", "phi": "big"}, {"op": "newton_number", "phi": "small"}],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    start = time.perf_counter()
    main(["run", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    big, small = json.loads(capsys.readouterr().out)["tasks"]
    assert big["status"] == "error"
    assert re.fullmatch(rf"BudgetExceeded: double description work of \d+ ray steps exceeds the limit of {MAX_DD_WORK}",
                        big["error"])
    assert small["status"] == "ok"
    assert small["result"]["value"] == "2"
    assert elapsed < 20  # the whole pass takes minutes; the budget stops it well under a second
