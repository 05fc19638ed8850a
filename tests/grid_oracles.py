"""Reference torus, sphere and slice means on whole grids.

Each mean builds its full grid at once, evaluates a `PolyLog` with one
complex exp of the summed phase per term, and reduces with
`math.fsum(values.tolist())`.  The library evaluates per-axis phase
factors in chunks and reduces with exact bucket sums; these slower
references check it.  `polylog_values_per_term` is the per-term
log-amplitude loop that the stacked log-sum-exp kernel of
`lelong.weights` replaced, kept to check that kernel bit for bit.  The
per-level means that the row routine of `lelong.numeric_oracle`
replaced (`torus_stats`, `sphere_stats`, `swept_stats`, `slice_stats`,
with their `grid_mean`) are kept as they were, to check its batches bit
for bit; `grid_stats` reads the library's grid as one mean.  The
closed-form means with a floor rule each (`_unscale`, `_dominant_mean`,
`_line_mean`, `_closed_mean`) are kept as they were before the forms
returned (mean, low, high) behind one rule, to check those bit for bit;
`dominant_only` reads the library's `_closed_mean` with the dominant
form alone.
"""

import cmath
import math
from concurrent import futures
from unittest import mock

import numpy as np

from lelong import numeric_oracle
from lelong.numeric_oracle import _CIRCLE_MARGIN, _DOMINANCE_MARGIN, CLIP_FLOOR, _rank_one, _vertex_rows
from lelong.weights import PolyLog, Scale, _log_rows, _peak_shift, _point_sums, depends_on_theta, torus_values

_GOLDEN = 0.6180339887498949


def polylog_values_exp(w: PolyLog, t, theta) -> np.ndarray:
    """log|sum_J c_J z^J| with exp(i (arg c_J + <J, theta>)) for each term."""
    logamps = []
    phases = []
    for c, J in w.terms:
        amp = None
        phase = None
        for k, Jk in enumerate(J):
            if not Jk:
                continue
            term_a = Jk * np.asarray(t[k], dtype=float)
            amp = term_a if amp is None else amp + term_a
            term_p = Jk * np.asarray(theta[k], dtype=float)
            phase = term_p if phase is None else phase + term_p
        la = math.log(abs(c))
        ph = cmath.phase(c)
        logamps.append(la if amp is None else la + amp)
        phases.append(ph if phase is None else ph + phase)
    peak = logamps[0]
    for la in logamps[1:]:
        peak = np.maximum(peak, la)
    peak = np.asarray(peak, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = 0
        for la, ph in zip(logamps, phases):
            amp = np.exp(np.where(peak == -np.inf, -np.inf, la - peak))
            acc = acc + amp * np.exp(1j * np.asarray(ph, dtype=float))
        return np.where(peak == -np.inf, -np.inf, peak + np.log(np.abs(acc)))


def polylog_values_per_term(w: PolyLog, t, theta) -> np.ndarray:
    """log|sum_J c_J z^J| with one log-amplitude, peak shift and phase product per term.

    Zero exponents are skipped, so 0 * (-inf) never appears.
    """
    logamps = []
    for c, J in w.terms:
        amp = None
        for k, Jk in enumerate(J):
            if Jk:
                term = Jk * np.asarray(t[k], dtype=float)
                amp = term if amp is None else amp + term
        la = math.log(abs(c))
        logamps.append(la if amp is None else la + amp)
    peak = logamps[0]
    for la in logamps[1:]:
        peak = np.maximum(peak, la)
    peak = np.asarray(peak, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = None
        for (c, J), la in zip(w.terms, logamps):
            contrib = np.exp(np.where(peak == -np.inf, -np.inf, la - peak)) * (c / abs(c))
            for k, Jk in enumerate(J):
                if Jk:
                    contrib = contrib * np.exp(1j * (Jk * np.asarray(theta[k], dtype=float)))
            if acc is None:
                acc = contrib
            elif np.shape(acc) == np.broadcast_shapes(np.shape(acc), np.shape(contrib)):
                acc += contrib
            else:
                acc = acc + contrib
        return peak + np.log(np.abs(acc))


def fsum_mean(values, shape) -> float:
    vals = np.maximum(np.broadcast_to(values, shape), CLIP_FLOOR)
    return math.fsum(vals.ravel().tolist()) / vals.size


def angles(k: int, nodes: int) -> np.ndarray:
    """The nodes of angle k (0-based): equispaced, offset by (k+1) golden ratios."""
    return 2.0 * math.pi * (np.arange(nodes) + ((k + 1) * _GOLDEN) % 1.0) / nodes


def torus_mean_ref(w: PolyLog, t, nodes: int) -> float:
    n = len(t)
    theta = [angles(k, nodes).reshape([nodes if i == k else 1 for i in range(n)])
             for k in range(n)]
    return fsum_mean(polylog_values_exp(w, t, theta), (nodes,) * n)


def sphere_mean_ref(w: PolyLog, r: float, nodes: int, dim: int, radial_nodes: int) -> float:
    """Midpoint rule in the simplex of squared moduli times the angle torus."""
    s = (np.arange(radial_nodes) + 0.5) / radial_nodes
    if dim == 2:
        moduli = [1.0 - s, s]
    else:
        u, v = np.meshgrid(s, s, indexing="ij")
        moduli = [1.0 - np.sqrt(u), np.sqrt(u) * (1.0 - v), np.sqrt(u) * v]
    lead = moduli[0].shape
    t = [(r + 0.5 * np.log(m)).reshape(lead + (1,) * dim) for m in moduli]
    theta = [angles(k, nodes).reshape((1,) * len(lead) + tuple(
        nodes if i == k else 1 for i in range(dim))) for k in range(dim)]
    shape = lead + (nodes,) * dim
    return fsum_mean(polylog_values_exp(w, t, theta), shape)


def slice_mean_ref(w: PolyLog, axis: int, r: float, nodes: int) -> float:
    """Circle mean of the restriction of a 2-D weight to {z_axis = 0}."""
    t = [r, r]
    theta = [angles(0, nodes), angles(0, nodes)]
    t[axis - 1] = -np.inf
    theta[axis - 1] = 0.0
    return fsum_mean(polylog_values_exp(w, t, theta), (nodes,))


def slice_restriction(w: PolyLog, axis: int) -> PolyLog:
    """The 1-D PolyLog of a 2-D w on {z_axis = 0}, in the other variable."""
    return PolyLog(tuple((c, (J[2 - axis],)) for c, J in w.terms if J[axis - 1] == 0))


def sphere_profiles(n: int, radial_nodes: int) -> list[np.ndarray]:
    """The library's radial log-moduli of the sphere, shaped (rows, 1, ..., 1) for n angle axes."""
    return [p.reshape((-1,) + (1,) * n) for p in numeric_oracle._equal_area_log_profiles(n, radial_nodes)]


def sphere_grid_rows(w, r: float, n: int, radial_nodes: int) -> int:
    """Radial rows of a sphere level that the closed form does not take."""
    t = tuple(r + p for p in sphere_profiles(n, radial_nodes))
    return int(np.isnan(numeric_oracle._closed_mean(w, t, CLIP_FLOOR)).sum())


def line_mean_ref(w: PolyLog, t, nodes: int) -> float:
    """Torus mean of a PolyLog whose exponents lie on one line, by a 1-D rule.

    With J_j = J_0 + k_j p for a primitive p, the map theta -> <p, theta>
    carries the Haar measure of the torus onto the circle, so the mean
    is that of log|sum_j c_j e^<J_j, t> e^(i k_j phi)| over nodes
    equispaced angles phi, offset by one golden ratio, reduced by fsum.
    """
    J0 = w.terms[0][1]
    diffs = [[a - b for a, b in zip(J, J0)] for _, J in w.terms]
    d = next(D for D in diffs if any(D))
    p = [x // math.gcd(*d) for x in d]
    i = next(k for k, x in enumerate(p) if x)
    ks = [D[i] // p[i] for D in diffs]
    assert all([k * x for x in p] == D for k, D in zip(ks, diffs)), "exponents off one line"
    logamps = np.array([math.log(abs(c)) + sum(j * x for j, x in zip(J, t) if j) for c, J in w.terms])
    peak = logamps.max()
    phi = angles(0, nodes)
    acc = sum(math.exp(la - peak) * (c / abs(c)) * np.exp(1j * k * phi)
              for (c, _), la, k in zip(w.terms, logamps, ks))
    return peak + math.fsum(np.log(np.abs(acc)).tolist()) / nodes


# ---------------------------------------------------------------------------
# the per-level means that the row routine replaced, kept as they were:
# one closed-form pass and one grid per torus, sphere level or slice level


def exact_parts(x: np.ndarray) -> list[float]:
    """Floats whose math.fsum equals math.fsum(x), for at most 2^26 values."""
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
    lo_sums = np.bincount(key, weights=np.subtract(x, hi, out=hi), minlength=4096)
    for sums in (hi_sums, lo_sums):
        parts.extend(sums[sums != 0].tolist())
    if not parts and x.size:
        parts.append(-0.0 if np.signbit(x).all() else 0.0)
    return parts


def grid_mean(w, t, theta, shape, floor: float, known=((), 1)):
    """(mean, clipped, total) of w clipped at floor over the broadcast grid, in chunks."""
    values, points = np.asarray(known[0], dtype=float), known[1]
    grid = math.prod(shape)
    total = grid + values.size * points
    numeric_oracle._check_grid(total)
    if callable(theta):
        theta = theta()
    workers = max(1, min(numeric_oracle._cpus(), -(-grid // numeric_oracle._CHUNK_POINTS)))

    def chunk(box):
        take = numeric_oracle._take
        sub = tuple(len(range(*s.indices(n))) for s, n in zip(box, shape))
        vals = torus_values(w, [take(x, box) for x in t], [take(x, box) for x in theta])
        fresh = vals.shape == sub and vals.flags.owndata and vals.flags.writeable
        out = vals if fresh else None
        vals = np.broadcast_to(vals, sub)
        clipped = int(np.count_nonzero(vals < floor))
        return clipped, exact_parts(np.maximum(vals, floor, out=out))

    boxes = numeric_oracle._chunks(shape, max(1, numeric_oracle._CHUNK_POINTS // workers))
    if workers == 1:
        results = [chunk(box) for box in boxes]
    else:
        with futures.ThreadPoolExecutor(workers) as pool:
            pending = [pool.submit(chunk, box) for box in boxes]
            try:
                results = [f.result() for f in futures.as_completed(pending)]
            finally:
                for f in pending:
                    f.cancel()
    results.append((points * int(np.count_nonzero(values < floor)),
                    numeric_oracle._repeat_parts(np.maximum(values, floor), points)))
    mean = math.fsum(p for _, parts in results for p in parts) / total
    return mean, sum(c for c, _ in results), total


def torus_stats(w, t, nodes: int):
    n = len(t)
    t = tuple(float(x) for x in t)
    total = nodes**n
    if not depends_on_theta(w):
        val = torus_values(w, t, (0.0,) * n)
    else:
        numeric_oracle._check_grid(total)
        val = numeric_oracle._closed_mean(w, t, CLIP_FLOOR)
        if val is None or np.isnan(val):
            theta = [g[0] for g in numeric_oracle._theta_grids(n, nodes)]
            return grid_mean(w, t, theta, (nodes,) * n, CLIP_FLOOR)
    if val < CLIP_FLOOR:
        return CLIP_FLOOR, total, total
    return float(val), 0, total


def sphere_stats(w, r: float, nodes: int, dim: int, radial_nodes: int | None = None):
    if r >= 0:
        raise ValueError("radius exponent must be negative")
    n = dim
    if radial_nodes is None:
        radial_nodes = 64 if n == 2 else 16
    profiles = sphere_profiles(n, radial_nodes)
    t = tuple(r + p for p in profiles)
    if not depends_on_theta(w):
        return grid_mean(w, t, (0.0,) * n, profiles[0].shape, CLIP_FLOOR)
    rows = math.prod(profiles[0].shape[:-n])
    t = tuple(x.reshape((rows,) + (1,) * n) for x in t)
    means = numeric_oracle._closed_mean(w, t, CLIP_FLOOR)
    means = np.full(rows, np.nan) if means is None else means.reshape(rows)
    grid = np.isnan(means)
    return grid_mean(w, tuple(x[grid] for x in t), lambda: numeric_oracle._theta_grids(n, nodes),
                     (int(grid.sum()),) + (nodes,) * n, CLIP_FLOOR, known=(means[~grid], nodes**n))


def swept_stats(gm, w, r: float, nodes: int):
    radii = [tuple(abs(r) * x for x in numeric_oracle._atom_radii(t0)) for t0, _ in gm.atoms]
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    total = 0.0
    clipped = 0
    count = 0
    for t, (_, mass) in zip(radii, gm.atoms):
        mean, c, tot = torus_stats(w, t, nodes)
        total += mean * float(mass)
        clipped += c
        count += tot
    n = len(radii[0]) if radii else 0
    return math.factorial(n) * total, clipped, count


def slice_stats(w, axis: int, r: float, nodes: int):
    other = 2 - (axis - 1) - 1

    def theta():
        angles = [0.0, 0.0]
        angles[other] = numeric_oracle._theta_grids(1, nodes)[0][0]
        return angles

    t = [0.0, 0.0]
    t[axis - 1] = float("-inf")
    t[other] = r
    return grid_mean(w, t, theta, (nodes,), CLIP_FLOOR)


# ---------------------------------------------------------------------------
# the library's row routine and grid, read as single means


def row_stats(w, t, nodes: int):
    """(mean, clipped, total) of the library's row routine on the one torus at t."""
    means, clipped, _ = numeric_oracle._rows(w, [[x] for x in t], nodes)
    return means[0], clipped[0], nodes ** len(t)


def grid_stats(w, t, theta, shape, floor: float = CLIP_FLOOR):
    """(mean, clipped, total) of the library's chunked grid, all its rows as one mean."""
    parts, clipped = numeric_oracle._grid_rows(w, t, theta, shape, floor)
    total = math.prod(shape)
    return math.fsum(p for row in parts for p in row) / total, int(clipped.sum()), total


def torus_grid(w, t, nodes: int):
    """(mean, clipped, total) of the library's grid over the whole torus, with no closed form."""
    n = len(t)
    return grid_stats(w, t, numeric_oracle._theta_grids(n, nodes), (1,) + (nodes,) * n)


# ---------------------------------------------------------------------------
# the closed-form means as they were, each with its own scale unwrapping,
# PolyLog gate and floor rule


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
    s = _point_sums(shifted)
    margin = _DOMINANCE_MARGIN * (len(exponents) + len(t) * (np.abs(peak) + np.abs(log_c).max()))
    with np.errstate(invalid="ignore", divide="ignore"):
        low, high = factor * (peak + np.log(2.0 - s)), factor * (peak + np.log(s))
        accept = _vertex_rows(exponents)[g.argmax(axis=0)] & (s < 2.0 - margin)
        accept &= (low >= floor) | (high < floor)
    return np.where(accept, factor * peak, np.nan)


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
        high = factor * (A + peak + np.log(_point_sums(shifted)))
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


def dominant_only(w, t):
    """The library's `_closed_mean` at CLIP_FLOOR with the line form switched off.

    These are the means the dominant form takes by itself, NaN elsewhere.
    """
    with mock.patch.object(numeric_oracle, "_line_form", lambda terms, t: None):
        return numeric_oracle._closed_mean(w, t, CLIP_FLOOR)
