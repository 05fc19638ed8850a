"""Floating-point verification layer for the exact density calculus.

Estimates the defining limits of classical, directional and generalized
Lelong densities by torus and sphere means over a schedule of shrinking
radii, applies the atomic boundary measure to arbitrary evaluable
weights, and measures the one-variable mass of a weight restricted to a
coordinate hyperplane.  Every quadrature grid goes through one
reduction, `_grid_mean`, which also enforces MAX_GRID_POINTS on the
nominal grid of the mean; the swept-measure value and each level of the
generalized estimate are one atom sum, `_swept_stats`.

A torus mean of a bare or scaled `PolyLog` needs no grid where one of
two closed forms holds (`_closed_mean`).  Where one term of a
Newton-diagram vertex dominates the others, the mean is that term's
log-modulus, exactly (`_dominant_mean`).  At the other points, a
polynomial whose exponents lie on one line, J_j = base + e_j v (every
binomial, every 2-D homogeneous polynomial), has the mean of a
univariate polynomial q, which Jensen's formula gives from the roots of
q (`_line_mean`).  Both accept a point only where the clip floor clips
no node of its torus or every node, and the line form only where no
root of q lies within a relative 1e-6 of its circle; lines of degree
above _MAX_LINE_DEGREE keep the grid.  A sphere mean takes the closed
forms on each radial row where they hold and sends the other rows
through one `_grid_mean`.

Determinism contract: fixed node grids and an exact sum, so identical
inputs produce bitwise-identical outputs.  A grid is evaluated in chunks,
concurrently on up to one thread per available CPU, with at most 2^18
points in flight; each chunk is reduced to exact bucket sums, and one
math.fsum over the buckets of all chunks and the closed-form rows equals
math.fsum of all the values.  No mean depends on the chunking, the
thread count or the order in which chunks finish.  The roots of the
line form come from LAPACK through numpy.roots, which gives identical
bits for identical inputs on one numpy build; they are cached per
term tuple.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .poly_geom import ExponentSet, _diagram, gamma_measure
from .weights import PolyLog, Scale, _log_rows, _peak_shift, depends_on_theta, dimension_of, torus_values

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
_CLIP_REJECT_FRACTION = 0.01

# Largest quadrature grid one mean may cover: 2^24 points.  This caps the
# work of one mean; larger grids fail before any evaluation, also where a
# closed form would leave part of the grid or all of it unbuilt.
MAX_GRID_POINTS = 2**24

# Relative margin of the dominance test of `_dominant_mean`.  The row
# log-amplitudes and their shifted exps are computed to a few ulp of the
# magnitudes involved, far inside 1e-12 of them.
_DOMINANCE_MARGIN = 1e-12

# Largest degree of the one-variable polynomial of a rank-one PolyLog
# that `_rank_one` factors: numpy.roots on its companion matrix takes
# about 0.15 s at degree 256 and 1.1 s at 512 (2-core Xeon).  Higher
# degrees keep the grid.
_MAX_LINE_DEGREE = 256

# Relative margin within which a root of `_line_mean` counts as lying
# on its circle: far above the rounding of s and of simple roots, and
# above the 3e-8 error of double roots from numpy.roots.
_CIRCLE_MARGIN = 1e-6

# Points evaluated at once: 2^18, 4 MiB per complex128 array.
_CHUNK_POINTS = 2**18

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


def _theta_grids(n: int, nodes: int, ndim: int | None = None) -> list[np.ndarray]:
    """Angle arrays of the n-torus grid, angle k along dimension ndim - n + k."""
    ndim = n if ndim is None else ndim
    grids = []
    for k in range(n):
        offset = ((k + 1) * _GOLDEN) % 1.0
        g = 2.0 * math.pi * (np.arange(nodes) + offset) / nodes
        shape = [1] * ndim
        shape[ndim - n + k] = nodes
        grids.append(g.reshape(shape))
    return grids


def _exact_parts(x: np.ndarray) -> list[float]:
    """Floats whose math.fsum equals math.fsum(x), for at most 2^26 values.

    Finite values are bucketed by their top 12 bits (sign and exponent).
    Within a bucket, hi (x with the low 26 mantissa bits cleared) and
    lo = x - hi are multiples of one power of two and short enough that
    2^26 of them sum exactly in float64, so the two bincount sums per
    bucket are exact whatever their order.  Non-finite values pass
    through as they are, and a signed zero stands for an all-zero x.
    """
    x = x.ravel()
    parts: list[float] = []
    finite = np.isfinite(x)
    if not finite.all():
        parts.extend(x[~finite].tolist())
        x = x[finite]
    bits = x.view(np.uint64)
    key = (bits >> np.uint64(52)).view(np.int64)
    hi = (bits & ~np.uint64(2**26 - 1)).view(np.float64)
    hi_sums = np.bincount(key, weights=hi, minlength=4096)
    # lo = x - hi overwrites hi, whose sums are taken
    lo_sums = np.bincount(key, weights=np.subtract(x, hi, out=hi), minlength=4096)
    for sums in (hi_sums, lo_sums):
        parts.extend(sums[sums != 0].tolist())
    if not parts and x.size:
        parts.append(-0.0 if np.signbit(x).all() else 0.0)
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
    if a.ndim == 0:
        return x
    return a[tuple(s if n > 1 else slice(None) for s, n in zip(box, a.shape))]


def _repeat_parts(values: np.ndarray, count: int) -> list[float]:
    """Floats whose math.fsum equals math.fsum of each value repeated count times.

    For count <= 2^26: hi (a value with its low 27 mantissa bits cleared)
    has at most 26 significant bits and lo = value - hi at most 27, so
    both products with count are exact.
    """
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


def _grid_mean(w, t, theta, shape, floor: float, known=((), 1)):
    """(mean, clipped, total) of w clipped at floor over the broadcast grid.

    known = (values, points) adds rows outside shape whose mean is known
    in closed form: each value stands for points grid points of that
    value.  They count in the total and the clip count, and join the one
    fsum exactly.  A total of more than MAX_GRID_POINTS points raises
    ValueError before anything is evaluated.  theta may be a function of
    no arguments that gives the angle arrays; it is called only for a
    grid under the cap, so that an oversized grid allocates nothing.

    Evaluates the grid in chunks on min(CPUs, ceil(points /
    _CHUNK_POINTS)) threads, each chunk of at most _CHUNK_POINTS //
    threads points, so that at most _CHUNK_POINTS points are in flight;
    one thread runs inline.  Every chunk is reduced to exact bucket
    sums, and one math.fsum over all of them gives the mean:
    bit-identical to fsum of all values whatever the chunking, the
    thread count or the order in which chunks finish.  An exception in
    a chunk cancels the chunks not yet started and re-raises here.
    """
    values, points = np.asarray(known[0], dtype=float), known[1]
    grid = math.prod(shape)
    total = grid + values.size * points
    _check_grid(total)
    if callable(theta):
        theta = theta()
    workers = max(1, min(_cpus(), -(-grid // _CHUNK_POINTS)))

    def chunk(box):
        sub = tuple(len(range(*s.indices(n))) for s, n in zip(box, shape))
        vals = torus_values(w, [_take(x, box) for x in t], [_take(x, box) for x in theta])
        # the inputs reach the evaluator as views, so an array that owns
        # its data and covers the chunk was made for this call: clip in place
        fresh = vals.shape == sub and vals.flags.owndata and vals.flags.writeable
        out = vals if fresh else None
        vals = np.broadcast_to(vals, sub)
        clipped = int(np.count_nonzero(vals < floor))
        return clipped, _exact_parts(np.maximum(vals, floor, out=out))

    boxes = _chunks(shape, max(1, _CHUNK_POINTS // workers))
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
    results.append((points * int(np.count_nonzero(values < floor)),
                    _repeat_parts(np.maximum(values, floor), points)))
    mean = math.fsum(p for _, parts in results for p in parts) / total
    return mean, sum(c for c, _ in results), total


@lru_cache(maxsize=1024)
def _vertex_rows(exponents: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Which rows J of exponents are vertices of conv(J) + R_+^n."""
    hull = {J for J, _ in _diagram(exponents, len(exponents[0]))[1]}
    rows = np.array([J in hull for J in exponents])
    rows.flags.writeable = False
    return rows


def _unscale(w):
    """(product of the scale factors around w, the weight inside them)."""
    factor = 1.0
    while isinstance(w, Scale):
        factor *= float(w.factor)
        w = w.child
    return factor, w


def _dominant_mean(w, t, floor: float):
    """Exact torus means of a bare or scaled PolyLog, NaN where a grid is needed.

    None when w is no such weight; otherwise an array over the broadcast
    shape of t.  With g_j = log|c_j| + <J_j, t> and peak = g_k their
    maximum, a point is accepted when J_k is a vertex of conv(J) + R_+^n
    and s = sum_j exp(g_j - peak) < 2, less a margin for rounding.  Its
    mean is then peak, times the scale factors.

    Proof.  On the torus, log|P| = g_k + Re log(1 + h) with h = sum_(j !=
    k) (c_j / c_k) z^(J_j - J_k), and |h| <= s - 1 < 1, so the series
    Re sum_m (-1)^(m+1) h^m / m converges uniformly and its mean is the
    sum of the constant terms of the h^m.  A vertex J_k has a strict
    separating functional a: <a, J_j - J_k> > 0 for every j != k.  Each
    monomial of h^m is a sum of m such differences, so no monomial is
    constant, and every mean vanishes.

    The floor is decided on the bounds g_k + log(2 - s) <= log|P| <=
    g_k + log(s): a point where it would clip some nodes of the torus
    but not all is sent to the grid.
    """
    factor, w = _unscale(w)
    if not isinstance(w, PolyLog) or len(w.terms[0][1]) > len(t):
        return None
    exponents = tuple(J for _, J in w.terms)
    log_c = np.array([math.log(abs(c)) for c, _ in w.terms])
    g = _log_rows(log_c, np.array(exponents, dtype=float), t)
    peak, shifted = _peak_shift(g)
    s = shifted.sum(axis=0)
    margin = _DOMINANCE_MARGIN * (len(exponents) + len(t) * (np.abs(peak) + np.abs(log_c).max()))
    with np.errstate(invalid="ignore", divide="ignore"):
        low, high = factor * (peak + np.log(2.0 - s)), factor * (peak + np.log(s))
        accept = _vertex_rows(exponents)[g.argmax(axis=0)] & (s < 2.0 - margin)
        accept &= (low >= floor) | (high < floor)
    return np.where(accept, factor * peak, np.nan)


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


def _line_mean(w, t, floor: float):
    """Exact torus means of a bare or scaled PolyLog of rank one, NaN where a grid is needed.

    None when w is no such weight, or its line is over the degree limit;
    otherwise an array over the broadcast shape of t.  The exponents lie
    on one line, J_j = base + e_j v, so P(z) = z^base q(z^v) with q(x) =
    sum_j c_j x^(e_j).  The character z -> z^v maps the Haar measure of
    the torus onto that of the circle |x| = e^s, s = <v, t>, and Jensen's
    formula gives the mean

        A + log|c_top| + sum_rho max(s, log|rho|),   A = <base, t>,

    over the roots rho of q (numpy.roots), times the scale factors.

    The floor is decided on the bounds low <= log|P| <= high on the torus:
    low = A + log|c_top| + sum_rho log|e^s - |rho||, from |x - rho| >=
    ||x| - |rho||, and high = A + log sum_j |c_j| e^(e_j s), from the
    triangle inequality.  A point is accepted when its mean is at least
    the floor and low is too (no node clips), or when its mean is below
    the floor and high is too (every node clips).  A root within
    _CIRCLE_MARGIN (relative, times 1 + sum_k |v_k t_k| for the rounding
    of s) of the circle counts as on it: low is -inf there, and only a
    point where every node clips is accepted.
    """
    factor, w = _unscale(w)
    if not isinstance(w, PolyLog) or len(w.terms[0][1]) > len(t):
        return None
    line = _rank_one(w.terms)
    if line is None:
        return None
    A, s = _log_rows(np.zeros(2), np.stack([line.base, line.v]), t)
    scale = _log_rows(np.zeros(1), np.abs(line.v)[None], [np.abs(x) for x in t])[0]
    lead = A + line.log_top
    with np.errstate(invalid="ignore", divide="ignore"):
        top = np.maximum(s[..., None], line.log_roots)
        gap = np.abs(s[..., None] - line.log_roots)
        near = gap <= _CIRCLE_MARGIN * (1.0 + scale[..., None])
        mean = factor * (lead + top.sum(axis=-1))
        low = factor * (lead + np.where(near, -np.inf, top + np.log(-np.expm1(-gap))).sum(axis=-1))
        peak, shifted = _peak_shift(_log_rows(line.log_c, line.degrees[:, None], (s,)))
        high = factor * (A + peak + np.log(shifted.sum(axis=0)))
        accept = np.where(mean >= floor, low >= floor, high < floor)
    return np.where(accept, mean, np.nan)


def _closed_mean(w, t, floor: float):
    """Exact torus means where a closed form holds, NaN elsewhere; None for other weights.

    `_dominant_mean` decides first; the points it leaves NaN take
    `_line_mean` where the weight has one.
    """
    means = _dominant_mean(w, t, floor)
    if means is not None and np.isnan(means).any():
        line = _line_mean(w, t, floor)
        if line is not None:
            means = np.where(np.isnan(means), line, means)
    return means


def _torus_stats(w, t: Sequence[float], nodes: int):
    n = len(t)
    t = tuple(float(x) for x in t)
    total = nodes**n
    if not depends_on_theta(w):
        # theta-independent weight: one node represents the whole torus
        val = torus_values(w, t, (0.0,) * n)
    else:
        _check_grid(total)
        val = _closed_mean(w, t, CLIP_FLOOR)
        if val is None or np.isnan(val):
            return _grid_mean(w, t, lambda: _theta_grids(n, nodes), (nodes,) * n, CLIP_FLOOR)
    if val < CLIP_FLOOR:
        return CLIP_FLOOR, total, total
    return float(val), 0, total


def torus_mean(w, t: Sequence[float], nodes: int) -> float:
    """Mean of w over the torus |z_k| = exp(t_k): closed form or tensor quadrature.

    Where one Newton-vertex term of a bare or scaled polynomial log
    dominates, the mean is that term's log-modulus (the Ronkin function
    is affine there) and no grid is built.  Elsewhere, a polynomial
    whose exponents lie on one line takes Jensen's formula for the
    univariate polynomial along it, unless a root lies on the circle
    within the margin, the clip floor would cut through the values of
    the torus, or the line is of degree above _MAX_LINE_DEGREE; the
    roots are bit-reproducible on one numpy build.  Otherwise values below
    CLIP_FLOOR (including -inf) are clipped at CLIP_FLOOR; the
    log-singularities this tames are integrable, so the bias is below
    the schedule tolerances at 64+ nodes per angle.  The grid cap
    applies to the nominal nodes**n grid either way.
    """
    if any(x >= 0 for x in t):
        raise ValueError("torus radii must satisfy t_k < 0")
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    mean, _, _ = _torus_stats(w, t, nodes)
    return mean


def _equal_area_log_profiles(n: int, radial_nodes: int) -> list[np.ndarray]:
    """log of each |omega_k| for an equal-area product grid on the unit sphere.

    The squared moduli of a uniformly distributed point on the unit
    sphere of C^n are uniform on the simplex; midpoint grids in the
    simplex parameters give the product rule.
    """
    if n == 1:
        return [np.zeros(1)]
    if n == 2:
        s = (np.arange(radial_nodes) + 0.5) / radial_nodes
        shape = (radial_nodes, 1, 1)
        return [
            0.5 * np.log1p(-s).reshape(shape),
            0.5 * np.log(s).reshape(shape),
        ]
    if n == 3:
        u = (np.arange(radial_nodes) + 0.5) / radial_nodes
        v = (np.arange(radial_nodes) + 0.5) / radial_nodes
        su = np.sqrt(u)[:, None]
        b1 = 1.0 - su + 0.0 * v[None, :]
        b2 = su * (1.0 - v)[None, :]
        b3 = su * v[None, :]
        shape = (radial_nodes, radial_nodes, 1, 1, 1)
        return [
            0.5 * np.log(b1).reshape(shape),
            0.5 * np.log(b2).reshape(shape),
            0.5 * np.log(b3).reshape(shape),
        ]
    raise ValueError("sphere means are implemented for dimensions 1..3 only")


def _sphere_stats(w, r: float, nodes: int, dim: int, radial_nodes: int | None = None):
    if r >= 0:
        raise ValueError("radius exponent must be negative")
    n = dim
    if radial_nodes is None:
        radial_nodes = 64 if n == 2 else 16
    profiles = _equal_area_log_profiles(n, radial_nodes)
    t = tuple(r + p for p in profiles)
    if not depends_on_theta(w):
        return _grid_mean(w, t, (0.0,) * n, profiles[0].shape, CLIP_FLOOR)
    # one n-torus per radial node: closed forms where they hold, and one
    # grid of a radial axis and n angle axes for the other rows
    rows = math.prod(profiles[0].shape[:-n])
    t = tuple(x.reshape((rows,) + (1,) * n) for x in t)
    means = _closed_mean(w, t, CLIP_FLOOR)
    means = np.full(rows, np.nan) if means is None else means.reshape(rows)
    grid = np.isnan(means)
    return _grid_mean(w, tuple(x[grid] for x in t), lambda: _theta_grids(n, nodes, n + 1),
                      (int(grid.sum()),) + (nodes,) * n, CLIP_FLOOR, known=(means[~grid], nodes**n))


def sphere_mean(w, r: float, nodes: int, dim: int, radial_nodes: int | None = None) -> float:
    """Mean of w over the sphere |z| = exp(r) in C^dim (uniform measure).

    An equal-area product rule: one n-torus per radial node.  Each torus
    takes a closed form of `torus_mean` where one holds (a dominant
    vertex term, or Jensen's formula along a line of exponents, with
    the same floor rule, margin and degree limit), and the others share
    one grid, with the cap on the nominal grid.
    """
    mean, _, _ = _sphere_stats(w, r, nodes, dim, radial_nodes)
    return mean


def _extrapolate(levels: list[float], ys: list[float], mode: str):
    if mode == "last_level":
        value = ys[-1]
    else:
        k = min(3, len(ys))
        xs = np.array([1.0 / r for r in levels[-k:]])
        yv = np.array(ys[-k:])
        design = np.vstack([np.ones(k), xs]).T
        coef, *_ = np.linalg.lstsq(design, yv, rcond=None)
        value = float(coef[0])
    stderr = abs(ys[-1] - ys[-2]) if len(ys) >= 2 else 0.0
    return value, stderr


def _sweep_levels(fn, sched: RadialSchedule, what: str) -> LimitEstimate:
    per_level = []
    usable_levels: list[float] = []
    usable_ys: list[float] = []
    for r in sched.levels:
        mean, clipped, total = fn(r)
        if clipped == total:
            raise NonPshStarProbeError(
                f"non-PSH_* probe: every node clipped at level r={r} during {what}"
            )
        y = mean / r
        rejected = clipped > _CLIP_REJECT_FRACTION * total
        per_level.append(
            {"r": r, "mean": mean, "ratio": y, "clipped": clipped, "nodes": total,
             "rejected": rejected}
        )
        if not rejected:
            usable_levels.append(r)
            usable_ys.append(y)
    if len(usable_ys) < 2:
        raise NonPshStarProbeError(
            f"fewer than two usable levels during {what}; deepen the schedule"
        )
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
    if any(x <= 0 for x in av):
        raise ValueError("direction must be strictly positive")

    def level(r):
        t = tuple(r * x for x in av)
        return _torus_stats(w, t, sched.angular_nodes)

    return _sweep_levels(level, sched, "directional probe")


def classical_lelong_numeric(w, sched: RadialSchedule = DEFAULT_SCHEDULE, dim: int | None = None,
                             radial_nodes: int | None = None) -> LimitEstimate:
    """Estimate the classical density via sphere means M(u, 0, r) / r.

    Dimensions 1..3 only.  Diagnostics carry the directional estimate in
    the diagonal direction, which must agree in the limit.
    """
    n = dim if dim is not None else dimension_of(w)
    if n not in (1, 2, 3):
        raise ValueError("classical estimates support dimensions 1..3 only")

    def level(r):
        return _sphere_stats(w, r, sched.angular_nodes, n, radial_nodes)

    est = _sweep_levels(level, sched, "sphere probe")
    diag = directional_lelong_numeric(w, (1.0,) * n, sched, n)
    merged = dict(est.diagnostics)
    merged["directional_at_ones"] = diag.value
    merged["kiselman_gap"] = abs(est.value - diag.value)
    return LimitEstimate(est.value, est.stderr, est.levels_used, merged)


def _atom_radii(t0, r: float) -> tuple[float, ...]:
    if any(x == 0 for x in t0):
        raise ValueError(
            f"atom {tuple(map(str, t0))} touches a coordinate wall: the weight's "
            "pole set is larger than the origin, so its boundary measure cannot "
            "be probed radially (add a pure generator on every axis)"
        )
    return tuple(abs(r) * float(x) for x in t0)


def _swept_stats(gm, w, r: float, nodes: int):
    """(n! * sum of mass * mean, clipped, total) over the atoms of gm.

    Each atom t0 contributes the torus mean of w at radii |r| * t0.
    Every atom is checked against the coordinate walls, and then nodes,
    before any mean is taken.
    """
    radii = [_atom_radii(t0, r) for t0, _ in gm.atoms]
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    total = 0.0
    clipped = 0
    count = 0
    for t, (_, mass) in zip(radii, gm.atoms):
        mean, c, tot = _torus_stats(w, t, nodes)
        total += mean * float(mass)
        clipped += c
        count += tot
    n = len(radii[0]) if radii else 0  # without atoms the sum is 0 in any dimension
    return math.factorial(n) * total, clipped, count


def swept_measure_apply(S_phi: ExponentSet, w, r: float, nodes: int) -> float:
    """Apply the level-r boundary measure of the weight to w.

    n! times the atom-mass-weighted sum of torus means of w at radii
    |r| * t0 for the atoms t0 of the weight's boundary measure.
    """
    if r >= 0:
        raise ValueError("level must be negative")
    return _swept_stats(gamma_measure(S_phi), w, r, nodes)[0]


def generalized_lelong_numeric(S_phi: ExponentSet, w, sched: RadialSchedule = DEFAULT_SCHEDULE) -> LimitEstimate:
    """Estimate the density of w against the weight by swept means over the schedule."""
    return _swept_estimate(gamma_measure(S_phi), w, sched)


def _swept_estimate(gm, w, sched: RadialSchedule) -> LimitEstimate:
    """The swept-measure sweep of w over the atoms of gm."""

    def level(r):
        mean, clipped, count = _swept_stats(gm, w, r, sched.angular_nodes)
        return mean, clipped, max(count, 1)

    return _sweep_levels(level, sched, "swept-measure probe")


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
    other = 2 - (axis - 1) - 1  # 0-based index of the surviving variable

    def theta():
        angles = [0.0, 0.0]
        angles[other] = _theta_grids(1, sched.angular_nodes)[0]
        return angles

    def level(r):
        t = [0.0, 0.0]
        t[axis - 1] = float("-inf")
        t[other] = r
        mean, clipped, total = _grid_mean(w, t, theta, (sched.angular_nodes,), CLIP_FLOOR)
        if clipped == total:
            raise SliceUndefinedError(
                f"slice undefined: restriction to z_{axis} = 0 is identically -inf"
            )
        return mean, clipped, total

    return _sweep_levels(level, sched, f"slice probe on axis {axis}")


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
