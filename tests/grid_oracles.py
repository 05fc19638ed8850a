"""Reference torus, sphere and slice means on whole grids.

Each mean builds its full grid at once, evaluates a `PolyLog` with one
complex exp of the summed phase per term, and reduces with
`math.fsum(values.tolist())`.  The library evaluates per-axis phase
factors in chunks and reduces with exact bucket sums; these slower
references check it.  `polylog_values_per_term` is the per-term
log-amplitude loop that the stacked log-sum-exp kernel of
`lelong.weights` replaced, kept to check that kernel bit for bit.
"""

import cmath
import math

import numpy as np

from lelong import numeric_oracle
from lelong.numeric_oracle import CLIP_FLOOR
from lelong.weights import PolyLog

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


def sphere_grid_rows(w, r: float, n: int, radial_nodes: int) -> int:
    """Radial rows of a sphere level that the closed form does not take."""
    profiles = numeric_oracle._equal_area_log_profiles(n, radial_nodes)
    rows = math.prod(profiles[0].shape[:-n])
    t = tuple((r + p).reshape((rows,) + (1,) * n) for p in profiles)
    return int(np.isnan(numeric_oracle._dominant_mean(w, t, CLIP_FLOOR)).sum())
