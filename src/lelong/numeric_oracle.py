"""Floating-point verification layer for the exact density calculus.

Estimates the defining limits of classical, directional and generalized
Lelong densities by torus and sphere means over a schedule of shrinking
radii, applies the atomic boundary measure to arbitrary evaluable
weights, and measures the one-variable mass of a weight restricted to a
coordinate hyperplane.  Every mean is taken by one row routine, `_rows`:
a row is one torus, given by its log-radii, and each probe passes all
rows of its schedule at once (directional: one per level; swept: levels
x atoms; classical: levels x radial nodes; slice: one circle per level
of the one-variable `weights.restriction`).  The rows take closed forms
where they hold, in one pass per 64 rows, and the others share one
chunked grid, `_grid_rows`.  MAX_GRID_POINTS caps nodes**n of an
angle-dependent weight, closed form or not, and then the grid rows of
one mean (a sphere level) times nodes**n: one mean, not the batch.

A torus mean of a bare or scaled `PolyLog` needs no grid where one of
two closed forms holds.  Each is a function of the terms and log-radii
that returns (mean, low, high), with low <= log|P| <= high on the
torus, and a NaN mean where its theorem does not hold.  Where one term
of a Newton-diagram vertex dominates the others, the mean is that
term's log-modulus, exactly (`_dominant_form`).  A polynomial whose
exponents lie on one line, J_j = base + e_j v (every binomial, every
2-D homogeneous polynomial), has the mean of a univariate polynomial q,
which Jensen's formula gives from the roots of q (`_line_form`); a root
within a relative 1e-6 of its circle makes low -inf, and lines of
degree above _MAX_LINE_DEGREE have no form.  `_closed_mean` unwraps the
scale factors, takes the dominant form first and the line form at the
points still open, and accepts a point by one floor rule: mean >=
floor and low >= floor (no node of its torus clips), or mean < floor
and high < floor (every node clips).  The other points keep the grid.
A sphere level is the mean of its radial rows, closed or not.  A slice
level is a torus mean of the restriction, so it takes the same closed
forms where the restriction is a bare or scaled `PolyLog`, and one node
where it does not depend on the angle.  The Richardson fit is a
closed-form least-squares line with no LAPACK call.

Determinism contract: fixed node grids and an exact sum, so identical
inputs produce bitwise-identical outputs.  A grid is evaluated in chunks,
concurrently on up to one thread per available CPU, with at most 2^18
points in flight; each chunk is reduced to exact bucket sums per row,
and each mean is one math.fsum over the buckets of its own rows (and
the exact parts of its closed-form rows, for a sphere), which equals
math.fsum of its values.  A closed-form torus mean is returned as it
is.  The per-point sums of the closed forms add the terms in the order
of a one-point sum, so a batch of rows gives each row the bits of that
row alone.  No mean depends on the batch, the chunking, the thread count
or the order in which chunks finish.  The roots of the line form come
from LAPACK through numpy.roots, the one LAPACK call on the report path,
which gives identical bits for identical inputs on one numpy build; they
are cached per term tuple.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from .poly_geom import ExponentSet, _diagram, gamma_measure
from .weights import (PolyLog, Scale, _log_rows, _peak_shift, _point_sums, depends_on_theta, dimension_of,
                      restriction, torus_values)

__all__ = [
    "CLIP_FLOOR",
    "MAX_GRID_POINTS",
    "RadialSchedule",
    "LimitEstimate",
    "ProfileEntry",
    "NonPshStarProbeError",
    "SliceUndefinedError",
    "torus_mean",
    "sphere_mean",
    "directional_lelong_numeric",
    "classical_lelong_numeric",
    "swept_measure_apply",
    "generalized_lelong_numeric",
    "slice_lelong",
    "indicator_profile",
]

CLIP_FLOOR = -1.0e6

# Largest quadrature grid one mean may cover: 2^24 points.  This caps the
# work of one mean; larger grids fail before any angle array exists.
MAX_GRID_POINTS = 2**24

# Relative margin of the dominance test of `_dominant_form` (s < 2 less
# this margin).  The row log-amplitudes and their shifted exps are
# computed to a few ulp of the magnitudes involved, far inside 1e-12 of
# them; the floor rule of `_closed_mean` then decides on its bounds.
_DOMINANCE_MARGIN = 1e-12

# Largest degree of the one-variable polynomial of a rank-one PolyLog
# that `_rank_one` factors: numpy.roots on its companion matrix takes
# about 0.15 s at degree 256 and 1.1 s at 512 (2-core Xeon).  Higher
# degrees keep the grid.
_MAX_LINE_DEGREE = 256

# Relative margin within which a root of `_line_form` counts as lying
# on its circle, which makes its low -inf, so that the floor rule of
# `_closed_mean` accepts the point only where every node clips: far
# above the rounding of s and of simple roots, and above the 3e-8 error
# of double roots from numpy.roots.
_CIRCLE_MARGIN = 1e-6

# Points evaluated at once: 2^18, 4 MiB per complex128 array.
_CHUNK_POINTS = 2**18

# Rows taken at once: a closed-form pass holds arrays of rows x terms
# values, and a grid chunk bucket arrays of rows x 4096 (2 MiB at 64).
_BLOCK_ROWS = 64

# Per-axis grid offsets in units of the node spacing.  Golden-ratio
# multiples guarantee that no integer combination of angles ever lands
# exactly on pi mod 2*pi, so quadrature nodes cannot coincide with
# torus zeros of a polynomial with integer exponents.
_GOLDEN = 0.6180339887498949


class NonPshStarProbeError(RuntimeError):
    """Every quadrature node clipped: the probed torus carries no finite value."""


class SliceUndefinedError(ValueError):
    """The restriction to the coordinate hyperplane is identically -inf."""


@dataclass(frozen=True)
class RadialSchedule:
    """Discretization of an r -> -inf limit.

    levels: strictly decreasing negative radii exponents;
    angular_nodes: equispaced nodes per angle (>= 64);
    extrapolation: 'last_level' or 'richardson_linear_in_1/r' (a linear
    fit of value/r against 1/r over the last three levels, matching the
    asymptotic form value = nu * r + O(1)).
    """

    levels: tuple[float, ...] = (-5.0, -10.0, -20.0, -30.0)
    angular_nodes: int = 256
    extrapolation: str = "richardson_linear_in_1/r"

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("a schedule needs at least two levels")
        if not all(math.isfinite(r) for r in self.levels):
            raise ValueError("levels must be finite")
        if any(r >= 0 for r in self.levels):
            raise ValueError("levels must be negative")
        if any(a <= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly decreasing")
        if self.angular_nodes < 64:
            raise ValueError("angular_nodes must be at least 64")
        if self.extrapolation not in ("last_level", "richardson_linear_in_1/r"):
            raise ValueError(f"unknown extrapolation {self.extrapolation!r}")

    @classmethod
    def geometric(cls, rmin: float, count: int, nodes: int = 256,
                  extrapolation: str = "richardson_linear_in_1/r") -> "RadialSchedule":
        if count >= 2:  # check the shallowest and deepest levels before building them all
            cls((rmin * 2.0 ** (1 - count), rmin), nodes, extrapolation)
        levels = tuple(rmin * 2.0 ** (i + 1 - count) for i in range(count))
        return cls(levels=levels, angular_nodes=nodes, extrapolation=extrapolation)


DEFAULT_SCHEDULE = RadialSchedule()


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    stderr: float
    levels_used: tuple[float, ...]
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("estimate must be finite")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class ProfileEntry:
    direction: tuple[float, ...]
    estimate: LimitEstimate | None
    error: str | None = None


def _theta_grids(n: int, nodes: int) -> list[np.ndarray]:
    """Angle arrays of the n-torus grid after a leading row axis, angle k along dimension k + 1."""
    grids = []
    for k in range(n):
        offset = ((k + 1) * _GOLDEN) % 1.0
        g = 2.0 * math.pi * (np.arange(nodes) + offset) / nodes
        grids.append(g.reshape([nodes if i == k + 1 else 1 for i in range(n + 1)]))
    return grids


def _exact_parts(x: np.ndarray) -> list[list[float]]:
    """For each row of the 2-D x, floats whose math.fsum equals that of the row.

    For rows of at most 2^26 values.  Finite values are bucketed by row
    and by their top 12 bits (sign and exponent).  Within a bucket, hi (x
    with the low 26 mantissa bits cleared) and lo = x - hi are multiples
    of one power of two and short enough that 2^26 of them sum exactly in
    float64, so the two bincount sums per bucket are exact whatever their
    order.  Non-finite values pass through as they are, and a signed zero
    stands for an all-zero row.
    """
    rows = x.shape[0]
    parts: list[list[float]] = [[] for _ in range(rows)]
    finite = np.isfinite(x)
    if not finite.all():
        i, j = np.nonzero(~finite)
        for row, value in zip(i.tolist(), x[i, j].tolist()):
            parts[row].append(value)
        x = np.where(finite, x, 0.0)
    bits = x.view(np.uint64)
    key = ((bits >> np.uint64(52)).view(np.int64) + 4096 * np.arange(rows)[:, None]).ravel()
    hi = (bits & ~np.uint64(2**26 - 1)).view(np.float64)
    hi_sums = np.bincount(key, weights=hi.ravel(), minlength=4096 * rows)
    # lo = x - hi overwrites hi, whose sums are taken
    lo_sums = np.bincount(key, weights=np.subtract(x, hi, out=hi).ravel(), minlength=4096 * rows)
    for sums in (hi_sums.reshape(rows, 4096), lo_sums.reshape(rows, 4096)):
        nonzero = sums != 0
        values, end = sums[nonzero].tolist(), 0
        for row, count in zip(parts, nonzero.sum(axis=1).tolist()):
            row += values[end:end + count]
            end += count
    for row, values in zip(parts, x):
        if not row and values.size:
            row.append(-0.0 if np.signbit(values).all() else 0.0)
    return parts


def _chunks(shape: tuple[int, ...], budget: int):
    """Consecutive index boxes of at most budget points covering shape.

    Splits the leading axis, and the axes after it while one slice is
    still over the budget.
    """
    k = 0
    while k < len(shape) - 1 and math.prod(shape[k + 1:]) > budget:
        k += 1
    step = max(1, budget // math.prod(shape[k + 1:]))
    tail = (slice(None),) * (len(shape) - k - 1)
    for prefix in np.ndindex(*shape[:k]):
        head = tuple(slice(i, i + 1) for i in prefix)
        for start in range(0, shape[k], step):
            yield head + (slice(start, start + step),) + tail


def _take(x, box: tuple[slice, ...]):
    """The part of x inside box; x is a scalar or an array of the grid's ndim."""
    a = np.asarray(x)
    return a[tuple(s if n > 1 else slice(None) for s, n in zip(box, a.shape))]


def _repeat_parts(values: np.ndarray, count: int) -> list[float]:
    """Floats whose math.fsum equals math.fsum of each value repeated count times.

    For count <= 2^26: hi (a value with its low 27 mantissa bits cleared)
    has at most 26 significant bits and lo = value - hi at most 27, so
    both products with count are exact.
    """
    if count > 2**26:
        raise ValueError(f"a repeat count of {count} exceeds the exact limit of {2**26}")
    hi = (values.view(np.uint64) & ~np.uint64(2**27 - 1)).view(np.float64)
    return (hi * count).tolist() + ((values - hi) * count).tolist()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _check_grid(total: int) -> None:
    if total > MAX_GRID_POINTS:
        raise ValueError(f"quadrature grid of {total} points exceeds the limit of {MAX_GRID_POINTS}")


def _grid_rows(w, t, theta, shape, floor: float):
    """(parts, clipped) of each row of w clipped at floor over the broadcast grid.

    The leading axis of shape indexes the rows: parts[i] are exact parts
    of the sum of row i's clipped values, clipped[i] counts its values
    below floor.  Evaluates the grid in chunks on min(CPUs, ceil(points /
    _CHUNK_POINTS)) threads, each chunk of at most _CHUNK_POINTS //
    threads points and _BLOCK_ROWS rows, so at most _CHUNK_POINTS points
    are in flight; one thread runs inline.  fsum of a row's parts equals
    that of its values whatever the chunking, the thread count or the
    order in which chunks finish.  An exception in a chunk cancels the
    chunks not yet started and re-raises here.
    """
    rows, row_points = shape[0], math.prod(shape[1:])
    workers = max(1, min(_cpus(), -(-rows * row_points // _CHUNK_POINTS)))

    def chunk(box):
        sub = tuple(len(range(*s.indices(n))) for s, n in zip(box, shape))
        vals = torus_values(w, [_take(x, box) for x in t], [_take(x, box) for x in theta])
        # the inputs reach the evaluator as views, so an array that owns
        # its data and covers the chunk was made for this call: clip in place
        fresh = vals.shape == sub and vals.flags.owndata and vals.flags.writeable
        out = vals if fresh else None
        vals = np.broadcast_to(vals, sub)
        clipped = np.count_nonzero((vals < floor).reshape(sub[0], -1), axis=1)
        vals = np.maximum(vals, floor, out=out).reshape(sub[0], -1)
        return box[0].start, clipped, _exact_parts(vals)

    boxes = _chunks(shape, max(1, min(_CHUNK_POINTS // workers, _BLOCK_ROWS * row_points)))
    if workers == 1:
        results = [chunk(box) for box in boxes]
    else:
        from concurrent import futures

        with futures.ThreadPoolExecutor(workers) as pool:
            pending = [pool.submit(chunk, box) for box in boxes]
            try:
                results = [f.result() for f in futures.as_completed(pending)]
            finally:
                for f in pending:
                    f.cancel()
    parts: list[list[float]] = [[] for _ in range(rows)]
    clipped = np.zeros(rows, dtype=np.int64)
    for start, counts, chunk_parts in results:
        clipped[start:start + len(counts)] += counts
        for row, more in zip(parts[start:], chunk_parts):
            row += more
    return parts, clipped


@lru_cache(maxsize=1024)
def _vertex_rows(exponents: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Which rows J of exponents are vertices of conv(J) + R_+^n."""
    hull = {J for J, _ in _diagram(exponents, len(exponents[0]))[1]}
    rows = np.array([J in hull for J in exponents])
    rows.flags.writeable = False
    return rows


def _dominant_form(terms, t):
    """(mean, low, high) of log|P| over the tori of t where one Newton-vertex term dominates.

    With g_j = log|c_j| + <J_j, t> and peak = g_k their maximum, the form
    holds where J_k is a vertex of conv(J) + R_+^n and s = sum_j exp(g_j
    - peak) < 2, less a margin for rounding; its mean is NaN elsewhere.
    The mean is peak, between low = peak + log(2 - s) and high = peak +
    log(s).

    Proof.  On the torus, log|P| = g_k + Re log(1 + h) with h = sum_(j !=
    k) (c_j / c_k) z^(J_j - J_k), and |h| <= s - 1 < 1, so the series
    Re sum_m (-1)^(m+1) h^m / m converges uniformly and its mean is the
    sum of the constant terms of the h^m.  A vertex J_k has a strict
    separating functional a: <a, J_j - J_k> > 0 for every j != k.  Each
    monomial of h^m is a sum of m such differences, so no monomial is
    constant, and every mean vanishes.  The bounds are those of |1 + h|
    between 1 - |h| and 1 + |h|.
    """
    exponents = tuple(J for _, J in terms)
    log_c = np.array([math.log(abs(c)) for c, _ in terms])
    g = _log_rows(log_c, np.array(exponents, dtype=float), t)
    peak, shifted = _peak_shift(g)
    s = _point_sums(shifted)
    margin = _DOMINANCE_MARGIN * (len(exponents) + len(t) * (np.abs(peak) + np.abs(log_c).max()))
    with np.errstate(invalid="ignore", divide="ignore"):
        holds = _vertex_rows(exponents)[g.argmax(axis=0)] & (s < 2.0 - margin)
        return np.where(holds, peak, np.nan), peak + np.log(2.0 - s), peak + np.log(s)


@dataclass(frozen=True)
class _Line:
    """A polynomial sum_j c_j z^(base + e_j v), read as z^base q(z^v)."""

    base: np.ndarray  # exponent of the lowest term
    v: np.ndarray  # generator of the lattice of exponent differences
    degrees: np.ndarray  # e_j: 0 <= e_j <= deg q, gcd 1
    log_c: np.ndarray  # log|c_j|
    log_top: float  # log|c_j| of the term with e_j = deg q
    log_roots: np.ndarray  # log|rho| over the roots of q


@lru_cache(maxsize=1024)
def _rank_one(terms: tuple[tuple[complex, tuple[int, ...]], ...]) -> _Line | None:
    """The line through the exponents of a polynomial, with the roots of q.

    None for one term, for exponent differences of rank 2 or more, for
    deg q above _MAX_LINE_DEGREE, which is tested before any roots are
    sought, and where a root modulus overflows or underflows.  The
    arrays are read-only.
    """
    J0 = terms[0][1]
    diffs = [tuple(a - b for a, b in zip(J, J0)) for _, J in terms]
    d = next((D for D in diffs if any(D)), None)
    if d is None:
        return None
    i = next(k for k, x in enumerate(d) if x)
    # D lies on the line of d exactly when D * d_i = d * D_i
    if any(x * d[i] != y * D[i] for D in diffs for x, y in zip(D, d)):
        return None
    g = math.gcd(*d)
    k = [D[i] * g // d[i] for D in diffs]  # D = k * (d / g), exactly
    low = min(k)
    step = math.gcd(*(x - low for x in k))
    degrees = [(x - low) // step for x in k]
    if max(degrees) > _MAX_LINE_DEGREE:
        return None
    q = np.zeros(max(degrees) + 1, dtype=complex)
    q[degrees] = [c for c, _ in terms]
    with np.errstate(divide="ignore", over="ignore"):
        log_roots = np.log(np.abs(np.roots(q[::-1])))
    if not np.isfinite(log_roots).all():
        return None
    line = _Line(
        base=np.array([a + low * x // g for a, x in zip(J0, d)], dtype=float),
        v=np.array([step * x // g for x in d], dtype=float),
        degrees=np.array(degrees, dtype=float),
        log_c=np.array([math.log(abs(c)) for c, _ in terms]),
        log_top=math.log(abs(q[-1])),
        log_roots=log_roots,
    )
    for a in (line.base, line.v, line.degrees, line.log_c, line.log_roots):
        a.flags.writeable = False
    return line


def _line_form(terms, t):
    """(mean, low, high) of log|P| over the tori of t by Jensen's formula; None without a line.

    None unless `_rank_one` finds the line of the exponents, J_j = base +
    e_j v, so P(z) = z^base q(z^v) with q(x) = sum_j c_j x^(e_j).  The
    character z -> z^v maps the Haar measure of the torus onto that of
    the circle |x| = e^s, s = <v, t>, and Jensen's formula gives the mean

        A + log|c_top| + sum_rho max(s, log|rho|),   A = <base, t>,

    over the roots rho of q (numpy.roots).  low = A + log|c_top| +
    sum_rho log|e^s - |rho||, from |x - rho| >= ||x| - |rho||, and high =
    A + log sum_j |c_j| e^(e_j s), from the triangle inequality.  A root
    within _CIRCLE_MARGIN (relative, times 1 + sum_k |v_k t_k| for the
    rounding of s) of the circle counts as on it: low is -inf there.
    """
    line = _rank_one(terms)
    if line is None:
        return None
    A, s = _log_rows(np.zeros(2), np.stack([line.base, line.v]), t)
    scale = _log_rows(np.zeros(1), np.abs(line.v)[None], [np.abs(x) for x in t])[0]
    lead = A + line.log_top
    with np.errstate(invalid="ignore", divide="ignore"):
        top = np.maximum(s[..., None], line.log_roots)
        gap = np.abs(s[..., None] - line.log_roots)
        near = gap <= _CIRCLE_MARGIN * (1.0 + scale[..., None])
        low = lead + np.where(near, -np.inf, top + np.log(-np.expm1(-gap))).sum(axis=-1)
        peak, shifted = _peak_shift(_log_rows(line.log_c, line.degrees[:, None], (s,)))
        return lead + top.sum(axis=-1), low, A + peak + np.log(_point_sums(shifted))


def _closed_mean(w, t, floor: float):
    """Exact torus means of a bare or scaled PolyLog where a closed form holds, NaN elsewhere.

    None when w, inside its scale factors, is no PolyLog or has more
    variables than t; otherwise an array over the broadcast shape of t.
    `_dominant_form` decides first, and `_line_form` takes the points it
    leaves NaN.  Each form's (mean, low, high), times the scale factors,
    is accepted by one floor rule: where the mean is at least the floor
    and low is too (no node of the torus clips), or where the mean is
    below the floor and high is too (every node clips).
    """
    factor = 1.0
    while isinstance(w, Scale):
        factor *= float(w.factor)
        w = w.child
    if not isinstance(w, PolyLog) or len(w.terms[0][1]) > len(t):
        return None
    means = None
    with np.errstate(invalid="ignore"):
        for form in (_dominant_form, _line_form):
            found = form(w.terms, t) if means is None or np.isnan(means).any() else None
            if found is not None:
                mean, low, high = (factor * x for x in found)
                taken = np.where(np.where(mean >= floor, low >= floor, high < floor), mean, np.nan)
                means = taken if means is None else np.where(np.isnan(means), taken, means)
    return means


def _rows(w, t, nodes: int, per_mean: int = 1):
    """Lists (means, clipped, parts) over the tori of R rows of log-radii.

    t holds one array of R log-radii per axis, each axis with angles, so
    a row has size = nodes**len(t) nodes.  One decision per _BLOCK_ROWS
    rows takes the closed rows: one `torus_values` call at one node per
    row for a theta-independent weight, else one `_closed_mean` pass.  A
    closed mean is clipped at CLIP_FLOOR (all nodes or none) and its
    parts are None.  The other rows share one `_grid_rows` grid; each
    mean is the fsum of the row's parts over size.  size is capped for a
    theta-dependent weight before any row is decided, and the grid rows
    of each run of per_mean rows (one mean) times size once they are.
    """
    n = len(t)
    t = [np.asarray(x, dtype=float) for x in t]
    size = nodes**n
    constant = not depends_on_theta(w)
    if not constant:
        _check_grid(size)
    means = np.full(t[0].shape, np.nan)
    for i in range(0, means.size, _BLOCK_ROWS):
        block = [x[i:i + _BLOCK_ROWS] for x in t]
        closed = torus_values(w, block, (0.0,) * n) if constant else _closed_mean(w, block, CLIP_FLOOR)
        if closed is not None:
            means[i:i + _BLOCK_ROWS] = closed
    grid = np.zeros(means.shape, dtype=bool) if constant else np.isnan(means)
    _check_grid(size * int(grid.reshape(-1, per_mean).sum(axis=1).max(initial=0)))
    clipped = [size if low else 0 for low in (means < CLIP_FLOOR).tolist()]
    means = np.maximum(means, CLIP_FLOOR)
    parts = [None] * means.size
    rows = np.flatnonzero(grid)
    if rows.size:
        grid_parts, grid_clipped = _grid_rows(w, [x[rows].reshape((-1,) + (1,) * n) for x in t],
                                              _theta_grids(n, nodes), (rows.size,) + (nodes,) * n, CLIP_FLOOR)
        for i, row, c in zip(rows.tolist(), grid_parts, grid_clipped.tolist()):
            parts[i], means[i], clipped[i] = row, math.fsum(row) / size, c
    return means.tolist(), clipped, parts


def torus_mean(w, t: Sequence[float], nodes: int) -> float:
    """Mean of w over the torus |z_k| = exp(t_k): closed form or tensor quadrature.

    A bare or scaled polynomial log takes the exact Ronkin value where
    one Newton-vertex term dominates, and Jensen's formula where its
    exponents lie on one line, with the margins, floor rule and degree
    limit of the module docstring.  Otherwise values below CLIP_FLOOR
    (including -inf) are clipped at CLIP_FLOOR; the log-singularities
    this tames are integrable, so the bias is below the schedule
    tolerances at 64+ nodes per angle.  nodes**n is capped for a weight
    that depends on the angles, closed form or not.
    """
    if not all(x < 0 for x in t):  # -inf restricts to a coordinate hyperplane; NaN fails too
        raise ValueError("torus radii must satisfy t_k < 0")
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    _check_variables(w, len(t), "the number of torus radii")
    return _rows(w, [[x] for x in t], nodes)[0][0]


def _check_variables(w, count: int, what: str) -> None:
    """ValueError, naming both counts, when w references more coordinates than an entry point's count."""
    try:
        need = dimension_of(w)
    except TypeError:  # an evaluable object of no weight type is taken as it is
        return
    if need > count:
        raise ValueError(f"weight references {need} coordinates but {what} is {count}")


def _equal_area_log_profiles(n: int, radial_nodes: int) -> list[np.ndarray]:
    """log of each |omega_k| over the radial rows of an equal-area product grid on the unit sphere.

    The squared moduli of a uniformly distributed point on the unit
    sphere of C^n are uniform on the simplex; midpoint grids in the
    simplex parameters give the product rule, one row per grid point.
    The rows, radial_nodes^(n - 1), and radial_nodes are capped first.
    """
    if n not in (1, 2, 3):
        raise ValueError("sphere means are implemented for dimensions 1..3 only")
    if radial_nodes < 1:
        raise ValueError(f"radial_nodes must be at least 1, got {radial_nodes}")
    _check_grid(radial_nodes ** max(n - 1, 1))
    if n == 1:
        return [np.zeros(1)]
    s = (np.arange(radial_nodes) + 0.5) / radial_nodes
    if n == 2:
        return [0.5 * np.log1p(-s), 0.5 * np.log(s)]
    su = np.sqrt(s)[:, None]
    moduli = (1.0 - su + 0.0 * s[None, :], su * (1.0 - s)[None, :], su * s[None, :])
    return [0.5 * np.log(b).ravel() for b in moduli]


def _sphere_levels(w, levels, nodes: int, n: int, radial_nodes: int | None = None):
    """(mean, clipped, total) of the sphere |z| = exp(r) in C^n for each r in levels.

    One torus row per radial node of each level, all in one `_rows`
    call; a level's mean is one fsum over the parts of its rows.  A
    theta-independent weight counts one node per radial row.  `_rows`
    caps the grid rows that each level builds.
    """
    _check_variables(w, n, "the sphere dimension")
    if radial_nodes is None:
        radial_nodes = 64 if n == 2 else 16
    profiles = _equal_area_log_profiles(n, radial_nodes)
    nodes = nodes if depends_on_theta(w) else 1
    rows, size = profiles[0].size, nodes**n
    means, clipped, parts = _rows(w, [np.add.outer(np.asarray(levels, dtype=float), p).ravel()
                                      for p in profiles], nodes, rows)
    stats = []
    for i in range(0, len(means), rows):
        level = range(i, i + rows)
        closed = _repeat_parts(np.array([means[j] for j in level if parts[j] is None]), size)
        level_parts = [x for j in level if parts[j] is not None for x in parts[j]]
        stats.append((math.fsum(level_parts + closed) / (rows * size),
                      sum(clipped[i:i + rows]), rows * size))
    return stats


def sphere_mean(w, r: float, nodes: int, dim: int, radial_nodes: int | None = None) -> float:
    """Mean of w over the sphere |z| = exp(r) in C^dim (uniform measure).

    An equal-area product rule: one n-torus per radial node, each taking
    a closed form of `torus_mean` where one holds, and the others one
    grid.  nodes is at least 64, and the grid is capped as in `_rows`.
    """
    if not math.isfinite(r):
        raise ValueError("radius exponent must be finite")
    if r >= 0:
        raise ValueError("radius exponent must be negative")
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    return _sphere_levels(w, (r,), nodes, dim, radial_nodes)[0][0]


def _extrapolate(levels: list[float], ys: list[float], mode: str):
    """(value, stderr) of the level ratios ys; stderr is |y_last - y_prev|.

    Richardson: the intercept of the closed-form least-squares line of ys
    against x = 1/r over the last k <= 3 levels (slope 0 if the x coincide).
    """
    if mode == "last_level":
        value = ys[-1]
    else:
        xs, yv = [1.0 / r for r in levels[-3:]], ys[-3:]
        x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(yv) / len(yv)
        dx = [x - x_bar for x in xs]
        sxx = math.fsum(d * d for d in dx)
        b = math.fsum(d * (y - y_bar) for d, y in zip(dx, yv)) / sxx if sxx else 0.0
        value = y_bar - b * x_bar
    stderr = abs(ys[-1] - ys[-2]) if len(ys) >= 2 else 0.0
    return value, stderr


def _sweep_levels(stats, sched: RadialSchedule, what: str) -> LimitEstimate:
    """The estimate from (mean, clipped, total) of each level of sched, in order."""
    per_level = []
    usable_levels: list[float] = []
    usable_ys: list[float] = []
    for r, (mean, clipped, total) in zip(sched.levels, stats):
        if clipped == total:
            raise NonPshStarProbeError(f"non-PSH_* probe: every node clipped at level r={r} during {what}")
        y = mean / r
        rejected = 100 * clipped > total  # more than 1% clipped, compared in integers
        per_level.append({"r": r, "mean": mean, "ratio": y, "clipped": clipped, "nodes": total,
                          "rejected": rejected})
        if not rejected:
            usable_levels.append(r)
            usable_ys.append(y)
    if len(usable_ys) < 2:
        raise NonPshStarProbeError(f"fewer than two usable levels during {what}; deepen the schedule")
    value, stderr = _extrapolate(usable_levels, usable_ys, sched.extrapolation)
    diagnostics = {
        "levels": per_level,
        "extrapolation": sched.extrapolation,
        "angular_nodes": sched.angular_nodes,
        "clip_floor": CLIP_FLOOR,
    }
    return LimitEstimate(value, stderr, tuple(usable_levels), diagnostics)


def directional_lelong_numeric(w, a: Sequence[float], sched: RadialSchedule = DEFAULT_SCHEDULE,
                               dim: int | None = None) -> LimitEstimate:
    """Estimate the directional density of w at the origin along a > 0.

    Where the ambient dimension dim is given, a has exactly dim entries;
    otherwise at least `dimension_of(w)`, and exactly that many for a
    `PolyLog`.  An evaluable object of no weight type is taken as it is.
    """
    av = tuple(float(x) for x in a)
    exact = dim is not None or isinstance(w, PolyLog)
    if dim is None:
        try:
            dim = dimension_of(w)
        except TypeError:
            dim = 0
    if len(av) < dim or exact and len(av) != dim:
        raise ValueError("direction dimension mismatch")
    if not all(math.isfinite(x) for x in av):
        raise ValueError("direction must be finite")
    if any(x <= 0 for x in av):
        raise ValueError("direction must be strictly positive")
    _check_variables(w, len(av), "the number of torus radii")
    means, clipped, _ = _rows(w, [np.multiply(sched.levels, x) for x in av], sched.angular_nodes)
    total = sched.angular_nodes ** len(av)
    return _sweep_levels(zip(means, clipped, repeat(total)), sched, "directional probe")


def classical_lelong_numeric(w, sched: RadialSchedule = DEFAULT_SCHEDULE, dim: int | None = None,
                             radial_nodes: int | None = None) -> LimitEstimate:
    """Estimate the classical density via sphere means M(u, 0, r) / r.

    Dimensions 1..3 only.  Diagnostics carry the directional estimate in
    the diagonal direction, which must agree in the limit.
    """
    n = dim if dim is not None else dimension_of(w)
    if n not in (1, 2, 3):
        raise ValueError("classical estimates support dimensions 1..3 only")
    est = _sweep_levels(_sphere_levels(w, sched.levels, sched.angular_nodes, n, radial_nodes), sched,
                        "sphere probe")
    diag = directional_lelong_numeric(w, (1.0,) * n, sched, n)
    merged = dict(est.diagnostics)
    merged["directional_at_ones"] = diag.value
    merged["kiselman_gap"] = abs(est.value - diag.value)
    return LimitEstimate(est.value, est.stderr, est.levels_used, merged)


def _atom_radii(t0) -> tuple[float, ...]:
    """The log-radii of the torus of atom t0 at level r = -1; a level r scales them by |r|."""
    if any(x == 0 for x in t0):
        raise ValueError(
            f"atom {tuple(map(str, t0))} touches a coordinate wall: the weight's "
            "pole set is larger than the origin, so its boundary measure cannot "
            "be probed radially (add a pure generator on every axis)"
        )
    return tuple(float(x) for x in t0)


def _swept_levels(gm, w, levels, nodes: int):
    """(n! * sum of mass * mean, clipped, total) over the atoms of gm, for each r in levels.

    Each atom t0 contributes the torus mean of w at radii |r| * t0, all
    levels and atoms in one `_rows` call.  Every atom is checked against
    the coordinate walls, and then nodes and the weight's variables,
    before any mean is taken.
    """
    t0s = [_atom_radii(t0) for t0, _ in gm.atoms]
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    if not t0s:  # without atoms the sum is 0 in any dimension
        return [(0.0, 0, 0)] * len(levels)
    n, count = len(t0s[0]), len(t0s)
    _check_variables(w, n, "the number of torus radii")
    t = np.multiply.outer(np.abs(np.asarray(levels, dtype=float)), np.array(t0s))
    means, clipped, _ = _rows(w, list(np.ascontiguousarray(t.reshape(-1, n).T)), nodes)
    masses = [float(mass) for _, mass in gm.atoms]
    stats = []
    for i in range(0, len(means), count):
        total = 0.0
        for mean, mass in zip(means[i:i + count], masses):
            total += mean * mass
        stats.append((math.factorial(n) * total, sum(clipped[i:i + count]), count * nodes**n))
    return stats


def swept_measure_apply(S_phi: ExponentSet, w, r: float, nodes: int) -> float:
    """Apply the level-r boundary measure of the weight to w.

    n! times the atom-mass-weighted sum of torus means of w at radii
    |r| * t0 for the atoms t0 of the weight's boundary measure.
    """
    if not math.isfinite(r):
        raise ValueError("level must be finite")
    if r >= 0:
        raise ValueError("level must be negative")
    return _swept_levels(gamma_measure(S_phi), w, (r,), nodes)[0][0]


def generalized_lelong_numeric(S_phi: ExponentSet, w, sched: RadialSchedule = DEFAULT_SCHEDULE) -> LimitEstimate:
    """Estimate the density of w against the weight by swept means over the schedule."""
    return _swept_estimate(gamma_measure(S_phi), w, sched)


def _swept_estimate(gm, w, sched: RadialSchedule) -> LimitEstimate:
    """The swept-measure sweep of w over the atoms of gm."""
    stats = _swept_levels(gm, w, sched.levels, sched.angular_nodes)
    return _sweep_levels(((m, c, max(k, 1)) for m, c, k in stats), sched, "swept-measure probe")


def slice_lelong(w, axis: int, sched: RadialSchedule = DEFAULT_SCHEDULE, dim: int = 2) -> LimitEstimate:
    """One-variable mass at 0 of w restricted to the hyperplane {z_axis = 0}.

    Implemented for dimension 2: the restriction is subharmonic in the
    remaining variable and its density is the limit of circle means
    m(rho) / log(rho).
    """
    if dim != 2:
        raise ValueError("slice estimates are implemented for dimension 2 only")
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    _check_variables(w, dim, "the slice dimension")
    w1 = restriction(w, axis, dim)
    if w1 is None:
        raise SliceUndefinedError(f"slice undefined: restriction to z_{axis} = 0 is identically -inf")
    means, clipped, _ = _rows(w1, [sched.levels], sched.angular_nodes)
    return _sweep_levels(zip(means, clipped, repeat(sched.angular_nodes)), sched,
                         f"slice probe on axis {axis}")


def indicator_profile(w, directions: Sequence[Sequence[float]],
                      sched: RadialSchedule = DEFAULT_SCHEDULE,
                      dim: int | None = None) -> tuple[ProfileEntry, ...]:
    """Directional estimates over a grid of directions; errors are per entry."""
    entries = []
    for a in directions:
        av = tuple(float(x) for x in a)
        try:
            est = directional_lelong_numeric(w, av, sched, dim)
            entries.append(ProfileEntry(av, est, None))
        except (ValueError, NonPshStarProbeError) as exc:
            entries.append(ProfileEntry(av, None, str(exc)))
    return tuple(entries)
