"""The row routine against the per-level means it replaced.

Each probe now passes all rows of its schedule to `numeric_oracle._rows`
at once.  `grid_oracles` keeps the one-level paths as they were (a
closed-form pass and a grid per torus, sphere level or slice level);
every batch here must give each level their (mean, clipped, total), bit
for bit.  A sub-logarithmic weight may move by one ulp: a scalar point
goes through the C library's pow, an array through numpy's.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import grid_oracles
from lelong import numeric_oracle
from lelong.demailly import basis_norms
from lelong.numeric_oracle import (CLIP_FLOOR, RadialSchedule, classical_lelong_numeric,
                                   directional_lelong_numeric, generalized_lelong_numeric, slice_lelong)
from lelong.poly_geom import ExponentSet, gamma_measure
from lelong.weights import CoordLog, MaxOf, NegPowLog, PolyLog, Scale, restriction

LEVELS = (-0.25, -0.5, -1.0, -2.0, -4.0, -8.0)
W2 = PolyLog.of([(1, (2, 0)), (1j, (0, 3)), (-0.5, (1, 1))])
TIE = PolyLog.of([(1, (1, 0)), (1, (0, 1))])
BASIS = basis_norms(MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3), CoordLog(2))), 3, dim=2)


def same(a, b, ulps: int = 0) -> bool:
    """(mean, clipped, total) alike: bitwise, or the mean within ulps units in the last place."""
    if a[1:] != b[1:]:
        return False
    if ulps == 0:
        return a[0].hex() == b[0].hex()
    return abs(a[0] - b[0]) <= ulps * math.ulp(b[0])


def kinds(w, t) -> list[str]:
    """'dominant', 'line' or 'grid' for each row of t, as the one-point path decides."""
    out = []
    for row in zip(*t):
        dominant = grid_oracles.dominant_only(w, row)
        closed = numeric_oracle._closed_mean(w, row, CLIP_FLOOR)
        if closed is None or np.isnan(closed):
            out.append("grid")
        else:
            out.append("dominant" if not np.isnan(dominant) else "line")
    return out


def check_directional(w, a, nodes: int, ulps: int = 0) -> list[str]:
    """Every level of the batch against the one-level path; the row kinds."""
    t = [np.multiply(LEVELS, x) for x in a]
    means, clipped, _ = numeric_oracle._rows(w, t, nodes)
    for r, got in zip(LEVELS, zip(means, clipped, [nodes ** len(a)] * len(LEVELS))):
        want = grid_oracles.torus_stats(w, tuple(r * x for x in a), nodes)
        assert same(got, want, ulps), (w, a, r, got, want)
    return kinds(w, t)


def random_polylog(rng: random.Random, n: int, terms: int, top: int) -> PolyLog:
    exps = set()
    while len(exps) < terms:
        exps.add(tuple(rng.randint(0, top) for _ in range(n)))
    return PolyLog.of([(10 ** rng.uniform(-1, 1) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), J)
                       for J in sorted(exps)])


@pytest.mark.parametrize("n, nodes", [(2, 64), (3, 16)])
def test_random_polylogs_match_the_one_level_path(n, nodes):
    # 2 to 10 terms: from 8 on, numpy sums the terms of one point pairwise
    rng = random.Random(30 + n)
    seen = []
    for terms in range(2, 11):
        for _ in range(2):
            w = random_polylog(rng, n, terms, 6 if n == 2 else 3)
            a = tuple(rng.uniform(0.5, 2.0) for _ in range(n))
            seen += check_directional(w, a, nodes)
    assert {"dominant", "grid"} <= set(seen)


def test_rank_one_lines_match_the_one_level_path():
    rng = random.Random(41)
    seen = []
    for _ in range(12):
        d = rng.randint(2, 7)
        ks = sorted(rng.sample(range(d + 1), rng.randint(2, min(4, d + 1))))
        w = PolyLog.of([(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), (k, d - k)) for k in ks])
        assert numeric_oracle._rank_one(w.terms) is not None
        seen += check_directional(w, (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)), 64)
    assert {"dominant", "line"} <= set(seen)


def test_ties_and_clipped_rows_match_the_one_level_path():
    # a root on the circle at every level keeps the grid
    assert set(check_directional(TIE, (1.0, 1.0), 64)) == {"grid"}
    # clipped in part on the grid, in full by a closed form and on the grid
    for w in (Scale(F(500000), TIE), Scale(F(2 * 10**6), PolyLog.of([(1, (1, 0)), (0.5, (0, 1))])),
              Scale(F(10**7), TIE)):
        check_directional(w, (1.0, 1.0), 64)
    means, clipped, _ = numeric_oracle._rows(Scale(F(500000), TIE), [[-1.0], [-1.0]], 64)
    assert 0 < clipped[0] < 64**2
    assert numeric_oracle._rows(Scale(F(10**7), TIE), [[-1.0], [-1.0]], 64)[1] == [64**2]


@pytest.mark.parametrize("w", [
    MaxOf.of(W2, Scale(F(3, 2), CoordLog(1))),
    Scale(F(3, 2), W2),
    Scale(0.25, Scale(F(3), W2)),
    MaxOf.of(Scale(F(2), CoordLog(1)), CoordLog(2)),
    BASIS,
], ids=["max tree", "scaled", "nested scales", "moduli only", "approx basis"])
def test_trees_and_bases_match_the_one_level_path(w):
    check_directional(w, (1.0, 1.5), 64)


def test_sub_logarithmic_weights_move_by_at_most_one_ulp():
    for p in (F(1, 2), F(1, 3), F(2, 3), F(9, 10)):
        check_directional(MaxOf.of(NegPowLog(1, p), CoordLog(2)), (1.3, 0.7), 64, ulps=1)


@pytest.mark.parametrize("w, n, nodes, radial", [
    (W2, 2, 32, 16),
    (PolyLog.of([(1, (2, 1, 1)), (1j, (1, 3, 1)), (-0.5, (1, 1, 2)), (0.7, (3, 1, 0))]), 3, 8, 4),
    (Scale(F(500000), TIE), 2, 32, 16),
    (MaxOf.of(W2, Scale(F(3, 2), CoordLog(1))), 2, 32, 8),
    (BASIS, 2, 64, 16),
    (Scale(F(3), CoordLog(1)), 1, 64, 4),
    (PolyLog.of([(1, (0,)), (2, (1,)), (1j, (3,))]), 1, 64, 4),
], ids=["mixed rows", "3-D", "clipped", "tree", "approx basis", "1-D moduli only", "1-D"])
def test_sphere_levels_match_the_one_level_path(w, n, nodes, radial):
    got = numeric_oracle._sphere_levels(w, LEVELS, nodes, n, radial)
    for r, stats in zip(LEVELS, got):
        assert same(stats, grid_oracles.sphere_stats(w, r, nodes, n, radial))


SWEPT_GM = gamma_measure(ExponentSet.of([(0, 6), (1, 3), (3, 1), (6, 0)]))


@pytest.mark.parametrize("gm, w", [
    (SWEPT_GM, PolyLog.of([(1, (2, 0)), (4, (1, 1)), (3, (0, 2))])),
    (SWEPT_GM, W2),
    (SWEPT_GM, Scale(F(500000), TIE)),
    (gamma_measure(ExponentSet.of([(4, 0, 0), (0, 5, 0), (0, 0, 3), (1, 1, 1)])),
     PolyLog.of([(1, (2, 1, 1)), (1j, (1, 3, 1)), (-0.5, (1, 1, 2)), (0.7, (3, 1, 0))])),
    (SWEPT_GM, BASIS),
], ids=["mixed atoms", "polylog", "clipped", "3-D", "approx basis"])
def test_swept_levels_match_the_one_level_path(gm, w):
    got = numeric_oracle._swept_levels(gm, w, LEVELS, 64)
    for r, stats in zip(LEVELS, got):
        assert same(stats, grid_oracles.swept_stats(gm, w, r, 64))


def test_slice_levels_match_the_one_level_path():
    # a slice level is the torus mean of the restriction on its circle:
    # the closed form where one holds, else a grid of one row
    rng = random.Random(8)
    sched = RadialSchedule(levels=LEVELS[1:], angular_nodes=64)
    seen = []
    for axis in (1, 2):
        for _ in range(4):
            w = random_polylog(rng, 2, rng.randint(2, 6), 4)
            free = (0, 3) if axis == 1 else (3, 0)  # a term free of z_axis
            w = PolyLog.of([*((c, J) for c, J in w.terms if J != free), (1.5, free)])
            w1 = grid_oracles.slice_restriction(w, axis)
            for lv in slice_lelong(w, axis, sched).diagnostics["levels"]:
                want = grid_oracles.torus_stats(w1, (lv["r"],), 64)
                assert same((lv["mean"], lv["clipped"], lv["nodes"]), want)
                seen += kinds(w1, [[lv["r"]]])
    assert {"dominant", "line"} <= set(seen)


@pytest.mark.parametrize("m", [1, 2])
def test_approx_basis_slices_keep_the_grid_bits(monkeypatch, m):
    # a basis lies outside the node algebra: its restriction is the basis at
    # t_axis = -inf, a function of the moduli that takes one node per level
    # and gives the bits of the grid of the one-level path
    basis = basis_norms(MaxOf.of(Scale(F(2), CoordLog(1)), Scale(F(3, 2), CoordLog(2))), m, dim=2)
    sched = RadialSchedule.geometric(-30.0, 4, 256)
    grids = grid_shapes(monkeypatch)
    for axis in (1, 2):
        for lv in slice_lelong(basis, axis, sched).diagnostics["levels"]:
            want = grid_oracles.slice_stats(basis, axis, lv["r"], 256)
            assert same((lv["mean"], lv["clipped"], lv["nodes"]), want)
    assert grids == []


def test_one_closed_pass_and_one_grid_per_sweep(monkeypatch):
    # a sweep of four levels, with closed and grid rows, makes one pass of
    # each kind; a per-level loop would make four
    calls = []
    for name in ("_closed_mean", "_grid_rows"):
        def counted(*args, _real=getattr(numeric_oracle, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(numeric_oracle, name, counted)
    sched = RadialSchedule(levels=(-1.0, -2.0, -4.0, -8.0), angular_nodes=64)
    directional = kinds(W2, [np.multiply(sched.levels, 1.5), np.multiply(sched.levels, 1.0)])
    assert directional == ["grid", "grid", "dominant", "dominant"]
    calls.clear()
    directional_lelong_numeric(W2, (1.5, 1.0), sched)
    assert calls == ["_closed_mean", "_grid_rows"]
    calls.clear()
    est = generalized_lelong_numeric(ExponentSet.of([(0, 6), (1, 3), (3, 1), (6, 0)]),
                                     PolyLog.of([(1, (2, 0)), (4, (1, 1)), (3, (0, 2))]), sched)
    assert calls == ["_closed_mean", "_grid_rows"]
    assert len(est.diagnostics["levels"]) == 4
    # a slice takes the closed forms of its restriction in one pass (a max
    # tree one grid: test_a_max_tree_slice_keeps_one_grid)
    calls.clear()
    slice_lelong(PolyLog.of([(1, (0, 2)), (-0.25, (1, 1)), (2, (0, 5))]), 1, sched)
    assert calls == ["_closed_mean"]
    # sphere levels, and the directional probe at (1, 1) that comes with them
    calls.clear()
    classical_lelong_numeric(W2, RadialSchedule(levels=(-0.5, -1.0, -2.0, -4.0), angular_nodes=64), dim=2,
                             radial_nodes=8)
    assert calls == ["_closed_mean", "_grid_rows", "_closed_mean", "_grid_rows"]


def test_long_batches_take_the_closed_forms_in_blocks(monkeypatch):
    # 150 rows: three closed-form passes of at most _BLOCK_ROWS rows, and
    # still the bits of the one-level path on every row
    rng = random.Random(5)
    w = random_polylog(rng, 2, 6, 5)
    t = [np.array([-rng.uniform(0.1, 6.0) for _ in range(150)]) for _ in range(2)]
    passes = []
    real = numeric_oracle._closed_mean

    def counted(w, t, floor):
        passes.append(t[0].size)
        return real(w, t, floor)

    monkeypatch.setattr(numeric_oracle, "_closed_mean", counted)
    means, clipped, _ = numeric_oracle._rows(w, t, 64)
    monkeypatch.undo()
    assert passes == [64, 64, 22]
    assert {"dominant", "grid"} <= set(kinds(w, t))
    for row, got in zip(zip(*t), zip(means, clipped, [64**2] * 150)):
        assert same(got, grid_oracles.torus_stats(w, row, 64))


def grid_shapes(monkeypatch) -> list:
    """The shapes that `_grid_rows` is called with from now on."""
    shapes = []

    def counted(w, t, theta, shape, floor, _real=numeric_oracle._grid_rows):
        shapes.append(shape)
        return _real(w, t, theta, shape, floor)

    monkeypatch.setattr(numeric_oracle, "_grid_rows", counted)
    return shapes


# on {z1 = 0}: z2 (1 + e^2 z2), whose root -e^-2 lies on the circle of the
# level -2; shallower levels take Jensen's formula, deeper ones the
# dominant term
ROOT_W = PolyLog.of([(1, (0, 1)), (math.exp(2.0), (0, 2)), (3, (1, 1))])


@pytest.mark.parametrize("w, levels, kind", [
    (ROOT_W, (-1.0, -2.0, -4.0, -8.0), ["line", "grid", "dominant", "dominant"]),
    # 500000 times that, 1e-4 off the root: the floor clips 22 of the 64 nodes
    (Scale(F(500000), ROOT_W), (-0.5, -1.0, -1.9999), ["line", "line", "grid"]),
], ids=["root on the circle", "floor through the circle"])
def test_only_the_levels_without_a_closed_form_take_the_grid(monkeypatch, w, levels, kind):
    w1 = restriction(w, 1, 2)
    assert kinds(w1, [list(levels)]) == kind
    grids = grid_shapes(monkeypatch)
    sched = RadialSchedule(levels=levels, angular_nodes=64)
    got = slice_lelong(w, 1, sched).diagnostics["levels"]
    assert grids == [(1, 64)]
    for lv, k in zip(got, kind):
        want = (grid_oracles.slice_stats(w, 1, lv["r"], 64) if k == "grid"
                else grid_oracles.torus_stats(w1, (lv["r"],), 64))
        assert same((lv["mean"], lv["clipped"], lv["nodes"]), want)
    if isinstance(w, Scale):
        assert 0 < got[-1]["clipped"] < 64


def test_an_empty_restriction_is_undefined():
    # no term is free of z1, so the restriction to z1 = 0 is identically -inf
    w = PolyLog.of([(1, (1, 0)), (2, (1, 3)), (-1j, (2, 1))])
    assert restriction(w, 1, 2) is None
    for v in (w, Scale(F(3, 2), w)):
        with pytest.raises(numeric_oracle.SliceUndefinedError) as info:
            slice_lelong(v, 1, RadialSchedule(levels=LEVELS[1:], angular_nodes=64))
        assert str(info.value) == "slice undefined: restriction to z_1 = 0 is identically -inf"


def test_a_max_tree_slice_keeps_one_grid(monkeypatch):
    # on either axis this tree restricts to a max of moduli, i z^3 and 3/2
    # log|z| or z^2, which takes one node per level and no grid; the
    # second restricts to max(z^2 + 2 z^5, 3/2 log|z|) on {z1 = 0}, whose
    # levels are the rows of one grid
    tree = MaxOf.of(W2, Scale(F(3, 2), CoordLog(2)))
    angled = MaxOf.of(PolyLog.of([(1, (0, 2)), (-0.25, (1, 1)), (2, (0, 5))]), Scale(F(3, 2), CoordLog(2)))
    grids = grid_shapes(monkeypatch)
    sched = RadialSchedule(levels=LEVELS[1:], angular_nodes=64)
    for w, axis, want_grids in [(tree, 1, []), (tree, 2, []), (angled, 1, [(len(sched.levels), 64)])]:
        grids.clear()
        for lv in slice_lelong(w, axis, sched).diagnostics["levels"]:
            want = grid_oracles.slice_stats(w, axis, lv["r"], 64)
            assert same((lv["mean"], lv["clipped"], lv["nodes"]), want)
        assert grids == want_grids
