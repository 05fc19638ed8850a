"""The chunked grid reduction: exact bucket sums, chunk and worker invariance,
memory, and agreement with whole-grid references."""

import json
import math
import random
import threading
import time
import tracemalloc
from concurrent import futures
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grid_oracles
from lelong import numeric_oracle
from lelong.cli import ProblemFile, execute, run_selftest
from lelong.poly_geom import ExponentSet, gamma_measure
from lelong.numeric_oracle import (
    CLIP_FLOOR,
    RadialSchedule,
    _exact_parts,
    classical_lelong_numeric,
    slice_lelong,
    sphere_mean,
    torus_mean,
)
from lelong.weights import CoordLog, MaxOf, PolyLog, Scale, torus_values


def same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


def bucket_sum(xs) -> float:
    """math.fsum of the exact parts of xs, taken as one row."""
    return math.fsum(_exact_parts(np.asarray(xs, dtype=float).reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# the exact bucket sum


_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_values = st.one_of(
    _magnitudes,
    _magnitudes.map(lambda x: -x),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and zeros
    st.sampled_from([0.0, -0.0, CLIP_FLOOR, 5e-324, -5e-324]),
    st.floats(min_value=-50.0, max_value=50.0),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_values, max_size=200))
@example([])
@example([-0.0])
@example([-0.0, -0.0, 0.0])
@example([CLIP_FLOOR] * 1000)
@example([1e300, -1e300, 1e-300, 5e-324])
@example([1.0, 2.0**-53, 2.0**-53])
def test_bucket_sum_equals_fsum(xs):
    got = bucket_sum(xs)
    assert same_float(got, math.fsum(xs))


def test_bucket_sum_long_array():
    rng = np.random.default_rng(20)
    n = 2**20
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[::97] = CLIP_FLOOR
    x[::101] = -0.0
    x[::103] = 1e-310
    parts = _exact_parts(x.reshape(1, -1))[0]
    assert len(parts) <= 2 * 4096
    assert same_float(math.fsum(parts), math.fsum(x.tolist()))


def test_bucket_sum_non_finite():
    for xs in ([np.inf, 1.0], [-np.inf, -2.5, 0.0], [np.nan, 1.0], [1.0, np.inf, np.nan]):
        assert same_float(bucket_sum(xs), math.fsum(xs))


def test_bucket_sums_keep_rows_apart():
    # rows of mixed signs and magnitudes, an all-zero row of each sign,
    # an empty-sum row of zeros, and rows with non-finite values
    rng = np.random.default_rng(21)
    x = rng.standard_normal((9, 300)) * 10.0 ** rng.integers(-300, 300, (9, 300))
    x[1] = -0.0
    x[2] = 0.0
    x[3, ::2] = -0.0
    x[4, 7] = np.inf
    x[5, 3] = np.nan
    x[6, :] = CLIP_FLOOR
    x[7, 5], x[7, 9] = -np.inf, np.nan
    parts = _exact_parts(x)
    assert len(parts) == 9
    for row, got in zip(x, parts):
        assert same_float(math.fsum(got), math.fsum(row.tolist()))
    assert _exact_parts(np.zeros((2, 0))) == [[], []]


def test_repeat_parts_are_exact_up_to_two_to_the_26():
    # each value times the count, rounded once, for counts up to 2^26; a
    # larger count could round the products, so it raises
    rng = random.Random(26)
    values = np.array([rng.uniform(-1e6, 1e6) for _ in range(50)] + [CLIP_FLOOR, 5e-324, -0.0])
    for count in (1, 3, 4096 * 7 + 1, 2**26 - 1, 2**26):
        for v in values.tolist():
            assert math.fsum(numeric_oracle._repeat_parts(np.array([v]), count)) == float(F(v) * count)
    with pytest.raises(ValueError, match="exceeds the exact limit"):
        numeric_oracle._repeat_parts(values, 2**26 + 1)


# ---------------------------------------------------------------------------
# chunk invariance


W2 = PolyLog.of([(1, (2, 0)), (1j, (0, 3)), (-0.5, (1, 1))])
W3 = PolyLog.of([(1, (2, 1, 1)), (1j, (1, 3, 1)), (-0.5, (1, 1, 2)), (0.7, (3, 1, 0))])
TREE = MaxOf.of(W2, Scale(F(3, 2), CoordLog(1)))
SCHED = RadialSchedule(levels=(-5.0, -10.0, -20.0), angular_nodes=64)
SLICE_W = PolyLog.of([(1, (0, 2)), (-0.25, (1, 1)), (2, (0, 5))])
# a slice of a PolyLog takes the closed forms of its restriction; a max tree keeps the grid
SLICE_TREE = MaxOf.of(SLICE_W, Scale(F(3, 2), CoordLog(2)))


torus_grid = grid_oracles.torus_grid


def sphere_grid(w, r: float, nodes: int, n: int, radial: int):
    """(mean, clipped, total) of the whole sphere grid, with no closed form."""
    profiles = grid_oracles.sphere_profiles(n, radial)
    return grid_oracles.grid_stats(
        w, tuple(r + p for p in profiles), numeric_oracle._theta_grids(n, nodes),
        profiles[0].shape[:-n] + (nodes,) * n)


# W2 along (3/2, 1): the two shallow levels keep the grid, the two deep
# ones take the dominant vertex
MIXED_LEVELS = (-1.0, -2.0, -4.0, -8.0)


def directional_rows(w, a, levels, nodes: int = 64):
    """(mean, clipped) of each level of a directional sweep, as one batch of rows."""
    means, clipped, _ = numeric_oracle._rows(w, [np.multiply(levels, x) for x in a], nodes)
    return list(zip(means, clipped))


# name -> (means under the current chunk budget, grid shape)
CHUNK_CASES = {
    "torus 2-D": (lambda: [torus_grid(W2, (-1.0, -2.0), 64)[0]], (64, 64)),
    "torus 3-D": (lambda: [torus_mean(W3, (-1.0, -2.0, -0.5), 64)], (64, 64, 64)),
    "torus tree": (lambda: [torus_mean(TREE, (-3.0, -1.0), 64)], (64, 64)),
    "sphere 2-D": (lambda: [sphere_mean(W2, -3.0, 64, 2)], (64, 64, 64)),
    "sphere tree": (lambda: [sphere_mean(TREE, -30.0, 64, 2)], (64, 64, 64)),
    "sphere moduli only": (lambda: [sphere_mean(Scale(F(3), CoordLog(2)), -3.0, 64, 2)], (64, 1, 1)),
    "sphere 3-D": (lambda: [numeric_oracle._sphere_levels(W3, (-2.0,), 16, 3, 4)[0][0]], (4, 4, 16, 16, 16)),
    # every level of a max-tree slice is a row of one grid
    "slice": (lambda: [lv["mean"] for lv in slice_lelong(SLICE_TREE, 1, SCHED).diagnostics["levels"]],
              (64,)),
    "directional mixed levels": (lambda: [m for m, _ in directional_rows(W2, (1.5, 1.0), MIXED_LEVELS)],
                                 (2, 64, 64)),
    "swept mixed levels": (lambda: [s[0] for s in numeric_oracle._swept_levels(
        SWEPT_GM, SWEPT_W, SWEPT_LEVELS, 64)], (3, 64, 64)),
}


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_means_do_not_depend_on_chunking(monkeypatch, name):
    means, shape = CHUNK_CASES[name]
    row = math.prod(shape[1:])
    # one row of the leading axis, 7 rows, fewer points than one row
    # (where a row holds more than one point), and the whole grid at once
    results = []
    for budget in (row, 7 * row, max(1, row // 2 - 5), math.prod(shape)):
        monkeypatch.setattr(numeric_oracle, "_CHUNK_POINTS", budget)
        results.append(means())
    for other in results[1:]:
        assert all(same_float(a, b) for a, b in zip(results[0], other))


def test_chunked_mean_is_fsum_of_the_whole_grid(monkeypatch):
    # coefficients scaled so that the mean is near 0: values of both signs
    # cancel, and any rounding in the reduction shows in the mean
    t = (-1.0, -2.0, -0.5)
    shift = math.exp(-torus_mean(W3, t, 64))
    w = PolyLog.of([(c * shift, J) for c, J in W3.terms])
    monkeypatch.setattr(numeric_oracle, "_CHUNK_POINTS", 1000)
    theta = numeric_oracle._theta_grids(3, 64)
    vals = np.maximum(np.broadcast_to(torus_values(w, t, theta), (1,) + (64,) * 3), CLIP_FLOOR)
    mean, clipped, total = torus_grid(w, t, 64)
    assert abs(mean) < 1e-9
    assert (clipped, total) == (0, 64**3)
    assert same_float(mean, math.fsum(vals.ravel().tolist()) / total)


def test_chunks_cover_the_grid_once():
    for budget, shape in [(7, (3, 5, 4)), (20, (3, 5, 4)), (1, (2, 3)), (100, (7,)), (4, (2, 1, 9))]:
        hits = np.zeros(shape, dtype=int)
        for box in numeric_oracle._chunks(shape, budget):
            assert hits[box].size <= budget
            hits[box] += 1
        assert (hits == 1).all()


# ---------------------------------------------------------------------------
# concurrent chunks


# values of 500000 (log|z1 + z2|) fall below the floor near the torus zeros
CLIPPING = Scale(F(500000), PolyLog.of([(1, (1, 0)), (1, (0, 1))]))

# z1^2 (1 + 4x + 3x^2) with x = z2 / z1, roots -1 and -1/3, against a
# weight with atoms at s = log|x| = 1/2, 0 and -1/2 on the swept level
# r = -3/2: a dominant vertex term, a root on the circle, and a point
# between the roots where Jensen's formula applies
SWEPT_W = PolyLog.of([(1, (2, 0)), (4, (1, 1)), (3, (0, 2))])
SWEPT_GM = gamma_measure(ExponentSet.of([(0, 6), (1, 3), (3, 1), (6, 0)]))


SWEPT_LEVELS = (-1.5, -3.0, -6.0)


def swept_row_kinds(r: float = -1.5):
    """'dominant', 'line' or 'grid' for each atom of SWEPT_GM at level r."""
    kinds = []
    for t0, _ in SWEPT_GM.atoms:
        t = tuple(abs(r) * x for x in numeric_oracle._atom_radii(t0))
        if not np.isnan(grid_oracles.dominant_only(SWEPT_W, t)):
            kinds.append("dominant")
        else:
            kinds.append("grid" if np.isnan(numeric_oracle._closed_mean(SWEPT_W, t, CLIP_FLOOR))
                         else "line")
    return kinds


# name -> ((mean, clipped, total) of every grid the case evaluates, grid size)
WORKER_CASES = {
    "torus 2-D": (lambda: [torus_grid(W2, (-1.0, -2.0), 64)], 64**2),
    "torus 3-D": (lambda: [grid_oracles.row_stats(W3, (-1.0, -2.0, -0.5), 32)], 32**3),
    "torus tree": (lambda: [grid_oracles.row_stats(TREE, (-3.0, -1.0), 64)], 64**2),
    "torus clipped": (lambda: [grid_oracles.row_stats(CLIPPING, (-1.0, -1.0), 64)], 64**2),
    "sphere 2-D": (lambda: [sphere_grid(W2, -3.0, 64, 2, 16)], 16 * 64**2),
    # 14 of the 16 radial rows take the closed form, 2 go to the grid
    "sphere mixed rows": (lambda: numeric_oracle._sphere_levels(W2, (-3.0,), 64, 2, 16), 2 * 64**2),
    "sphere 3-D": (lambda: numeric_oracle._sphere_levels(W3, (-2.0,), 16, 3, 4), 4**2 * 16**3),
    "sphere clipped": (lambda: numeric_oracle._sphere_levels(CLIPPING, (-1.0,), 64, 2, 16), 16 * 64**2),
    # the three levels of a max-tree slice are rows of one grid, each cut into chunks
    "slice": (lambda: [(lv["mean"], lv["clipped"], lv["nodes"])
                       for lv in slice_lelong(SLICE_TREE, 1, SCHED).diagnostics["levels"]], 64),
    # one atom of each kind: dominance, rank-one and grid rows
    "swept mixed rows": (lambda: numeric_oracle._swept_levels(SWEPT_GM, SWEPT_W, (-1.5,), 64), 64**2),
    # batched sweeps: levels or atoms of each kind share one grid
    "directional mixed levels": (lambda: directional_rows(W2, (1.5, 1.0), MIXED_LEVELS), 2 * 64**2),
    "swept mixed levels": (lambda: numeric_oracle._swept_levels(SWEPT_GM, SWEPT_W, SWEPT_LEVELS, 64),
                           3 * 64**2),
}


def _same_stats(a, b) -> bool:
    return len(a) == len(b) and all(
        same_float(x[0], y[0]) and x[1:] == y[1:] for x, y in zip(a, b))


def _shuffled_completion(fs):
    fs = list(fs)
    futures.wait(fs)
    random.Random(len(fs)).shuffle(fs)
    return iter(fs)


@pytest.mark.parametrize("name", sorted(WORKER_CASES))
def test_stats_do_not_depend_on_workers(monkeypatch, name):
    stats, size = WORKER_CASES[name]
    reference = stats()
    pools = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    # eight chunks per grid at one worker, and smaller ones at more
    monkeypatch.setattr(numeric_oracle, "_CHUNK_POINTS", size // 8)
    for workers in (1, 2, 3):
        monkeypatch.setattr(numeric_oracle, "_cpus", lambda: workers)
        for shuffle in (False, True):
            with monkeypatch.context() as m:
                if shuffle:
                    m.setattr(futures, "as_completed", _shuffled_completion)
                assert _same_stats(stats(), reference)
        # one chunk or one CPU runs inline; otherwise one pool per grid
        assert set(pools) == ({workers} if workers > 1 else set())
        pools.clear()
    if "clipped" in name:
        assert 0 < reference[0][1] < reference[0][2]
    if name == "sphere mixed rows":
        assert grid_oracles.sphere_grid_rows(W2, -3.0, 2, 16) == 2
    if name == "swept mixed rows":
        assert sorted(swept_row_kinds()) == ["dominant", "grid", "line"]
    if name == "swept mixed levels":
        kinds = [swept_row_kinds(r) for r in SWEPT_LEVELS]
        assert all(k.count("grid") == 1 for k in kinds)
        assert {"dominant", "line"} <= set(sum(kinds, []))
    if name == "directional mixed levels":
        t = [(1.5 * r, r) for r in MIXED_LEVELS]
        assert [bool(np.isnan(numeric_oracle._closed_mean(W2, x, CLIP_FLOOR))) for x in t] == [
            True, True, False, False]


class CachedWeight:
    """Returns one stored array for every call and records the chunk sizes."""

    theta_dependent = True
    dimension = 2

    def __init__(self, values):
        self.values = values
        self.sizes = []

    def torus_values(self, t, theta):
        self.sizes.append(math.prod(np.broadcast_shapes(*(np.shape(x) for x in (*t, *theta)))))
        return self.values


def test_points_in_flight_stay_under_the_budget(monkeypatch):
    monkeypatch.setattr(numeric_oracle, "_CHUNK_POINTS", 600)
    monkeypatch.setattr(numeric_oracle, "_cpus", lambda: 3)
    w = CachedWeight(np.zeros(()))
    torus_grid(w, (-1.0, -1.0), 64)
    assert sum(w.sizes) == 64**2
    assert max(w.sizes) <= 600 // 3


def test_clipping_writes_no_input_and_no_array_the_evaluator_keeps():
    # a stored full-size array below the floor, and a sphere grid whose
    # moduli-only weight returns views of the caller's radial profile
    kept = np.full((64, 64), -2.0 * 10**6)
    mean, clipped, _ = torus_grid(CachedWeight(kept), (-1.0, -1.0), 64)
    assert (mean, clipped) == (CLIP_FLOOR, 64**2)
    assert (kept == -2.0 * 10**6).all()
    t = (np.linspace(-3.0, -1.0, 16).reshape(16, 1, 1), np.full((16, 1, 1), -1.0))
    before = [x.copy() for x in t]
    mean, clipped, _ = grid_oracles.grid_stats(CoordLog(1), t, (0.0, 0.0), (16, 1, 1), -2.0)
    assert clipped == 8 and mean == pytest.approx((-2.0 * 8 + float(t[0][8:].sum())) / 16)
    assert all((x == y).all() for x, y in zip(t, before))


class RaisingWeight:
    """Fails on its first grid chunk; the other chunks are slow."""

    theta_dependent = True
    dimension = 2

    def __init__(self):
        self.calls = 0
        self.lock = threading.Lock()

    def torus_values(self, t, theta):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            raise RuntimeError("chunk evaluation failed")
        time.sleep(0.05)
        return np.zeros(np.broadcast_shapes(*(np.shape(x) for x in (*t, *theta))))


def test_a_failing_chunk_is_the_task_error(monkeypatch):
    monkeypatch.setattr(numeric_oracle, "_cpus", lambda: 2)
    monkeypatch.setattr(numeric_oracle, "_CHUNK_POINTS", 64**2 // 8)  # 16 chunks of 256
    w = RaisingWeight()
    sched = {"levels": [-5, -10], "nodes": 64}
    p = ProblemFile(
        name="raising", dimension=2,
        objects={"w": w, "phi": ExponentSet.of([(2, 0), (0, 3)])},
        tasks=({"op": "directional_lelong_numeric", "w": "w", "a": [1, 1], "schedule": sched},
               {"op": "newton_number", "phi": "phi"}),
    )
    first, second = execute(p).tasks
    assert first["status"] == "error"
    assert first["error"] == "RuntimeError: chunk evaluation failed"
    assert second["status"] == "ok"
    # the chunks not yet started when the error arrived were cancelled
    assert w.calls <= 8


def test_selftest_does_not_depend_on_workers(monkeypatch):
    payload, code = run_selftest()
    assert code == 0
    for workers in (1, 3):
        monkeypatch.setattr(numeric_oracle, "_cpus", lambda: workers)
        assert json.dumps(run_selftest(), sort_keys=True) == json.dumps((payload, code), sort_keys=True)


# ---------------------------------------------------------------------------
# the whole-grid references


def _random_polylog(rng: random.Random, n: int, terms: int) -> PolyLog:
    exps = set()
    while len(exps) < terms:
        exps.add(tuple(rng.randint(0, 4) for _ in range(n)))
    return PolyLog.of([(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), J) for J in sorted(exps)])


@pytest.mark.parametrize("n", [2, 3])
def test_means_match_whole_grid_reference(n):
    # the grids themselves: torus_mean and sphere_mean take closed forms
    # where one Newton-vertex term dominates (tests/test_dominant_mean.py)
    rng = random.Random(50 + n)
    nodes = 64
    for i in range(8):
        w = _random_polylog(rng, n, rng.randint(2, 4))
        t = tuple(-rng.uniform(0.1, 4.0) for _ in range(n))
        got = torus_grid(w, t, nodes)[0]
        assert got == pytest.approx(grid_oracles.torus_mean_ref(w, t, nodes), abs=1e-12)
        # an axis at -inf: the mean restricted to a coordinate hyperplane
        t_wall = (-math.inf,) + t[1:]
        got = torus_grid(w, t_wall, nodes)[0]
        assert got == pytest.approx(grid_oracles.torus_mean_ref(w, t_wall, nodes), abs=1e-12)
        radial = 16 if n == 2 else 4
        r = -rng.uniform(0.5, 6.0)
        got = sphere_grid(w, r, 32, n, radial)[0]
        assert got == pytest.approx(grid_oracles.sphere_mean_ref(w, r, 32, n, radial), abs=1e-12)


def test_means_match_reference_on_edge_weights():
    single = PolyLog.of([(0.3 - 0.4j, (2, 1))])
    zero_exponents = PolyLog.of([(2.0, (0, 0)), (1j, (3, 0)), (-1, (0, 2))])
    for w in (single, zero_exponents):
        got = torus_grid(w, (-1.5, -0.5), 64)[0]
        assert got == pytest.approx(grid_oracles.torus_mean_ref(w, (-1.5, -0.5), 64), abs=1e-12)
        got = sphere_mean(w, -2.0, 64, 2)
        assert got == pytest.approx(grid_oracles.sphere_mean_ref(w, -2.0, 64, 2, 64), abs=1e-12)
    # a zero term on every axis but one, a constant term, and -inf on the other axis
    got = torus_mean(zero_exponents, (-math.inf, -0.5), 64)
    assert got == pytest.approx(grid_oracles.torus_mean_ref(zero_exponents, (-math.inf, -0.5), 64),
                                abs=1e-12)


def test_slice_means_match_reference():
    rng = random.Random(7)
    for _ in range(6):
        w = _random_polylog(rng, 2, rng.randint(2, 4))
        if all(J[0] for _, J in w.terms):  # keep the restriction to z1 = 0 finite
            w = PolyLog.of(list(w.terms) + [(1.5, (0, 3))])
        est = slice_lelong(w, 1, SCHED)
        for lv in est.diagnostics["levels"]:
            want = grid_oracles.slice_mean_ref(w, 1, lv["r"], SCHED.angular_nodes)
            assert lv["mean"] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("scale", [None, (F(3, 2),), (0.25, F(3))], ids=["bare", "scaled", "nested scales"])
def test_closed_slices_match_reference_and_the_restriction(scale):
    # a slice level of a PolyLog is the closed form of its restriction: the
    # whole-circle reference within 1e-12, and the bits of torus_mean of
    # the 1-D restriction (of two terms or more, which takes no shortcut
    # for theta-free weights)
    def scaled(w):
        for f in reversed(scale or ()):
            w = Scale(f, w)
        return w

    factor = math.prod(float(f) for f in scale or ())
    rng = random.Random(17)
    for axis in (1, 2):
        for _ in range(6):
            w = _random_polylog(rng, 2, rng.randint(2, 5))
            free = [J for J in ((0, 1), (0, 4)) if axis == 1] or [(1, 0), (4, 0)]
            w = PolyLog.of([*((c, J) for c, J in w.terms if J not in free), (1.5, free[0]), (-0.5j, free[1])])
            w1 = grid_oracles.slice_restriction(w, axis)
            for lv in slice_lelong(scaled(w), axis, SCHED).diagnostics["levels"]:
                assert np.isfinite(numeric_oracle._closed_mean(w1, [[lv["r"]]], CLIP_FLOOR)).all()
                want = grid_oracles.slice_mean_ref(w, axis, lv["r"], SCHED.angular_nodes)
                assert lv["mean"] == pytest.approx(factor * want, abs=1e-12)
                assert same_float(lv["mean"], torus_mean(scaled(w1), (lv["r"],), SCHED.angular_nodes))


# ---------------------------------------------------------------------------
# the sphere probe's clip count


def test_sphere_probe_counts_clipped_nodes():
    # at r = -30 about 8% of the sphere nodes of 32000 log|z1| lie below the floor
    est = classical_lelong_numeric(Scale(F(32000), CoordLog(1)), dim=2)
    deepest = est.diagnostics["levels"][-1]
    assert deepest["r"] == -30.0
    assert deepest["clipped"] > 0.05 * deepest["nodes"]
    assert deepest["rejected"]
    assert -30.0 not in est.levels_used
    assert est.value == pytest.approx(32000.0, rel=1e-6)


# ---------------------------------------------------------------------------
# memory


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_grid_means_run_in_bounded_memory():
    assert _peak_mib(lambda: torus_mean(W3, (-1.0, -2.0, -0.5), 128)) <= 32
    assert _peak_mib(lambda: sphere_mean(W2, -3.0, 256, 2)) <= 32
