"""Floating-point verification layer for the exact density calculus.

Estimates the defining limits of classical, directional and generalized
Lelong densities by torus and sphere means over a schedule of shrinking
radii, applies the atomic boundary measure to arbitrary evaluable
weights, and measures the one-variable mass of a weight restricted to a
coordinate hyperplane.

Determinism contract: fixed node grids, fixed evaluation order, and
compensated summation via math.fsum, so identical inputs produce
bitwise-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .poly_geom import ExponentSet, gamma_measure
from .weights import depends_on_theta, torus_values

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

# Largest quadrature grid one evaluation may build: 2^24 points, a 256 MiB
# complex128 array.  Larger grids fail before any allocation.
MAX_GRID_POINTS = 2**24

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


def _theta_grids(n: int, nodes: int) -> list[np.ndarray]:
    grids = []
    for k in range(n):
        offset = ((k + 1) * _GOLDEN) % 1.0
        g = 2.0 * math.pi * (np.arange(nodes) + offset) / nodes
        shape = [1] * n
        shape[k] = nodes
        grids.append(g.reshape(shape))
    return grids


def _check_grid(shape) -> None:
    size = math.prod(shape)
    if size > MAX_GRID_POINTS:
        raise ValueError(
            f"quadrature grid of {size} points exceeds the limit of {MAX_GRID_POINTS}"
        )


def _torus_stats(w, t: Sequence[float], nodes: int, floor: float = CLIP_FLOOR):
    n = len(t)
    if depends_on_theta(w):
        _check_grid((nodes,) * n)
        theta = _theta_grids(n, nodes)
        vals = np.broadcast_to(
            torus_values(w, tuple(float(x) for x in t), theta), (nodes,) * n
        )
        total = nodes**n
        clipped = int(np.count_nonzero(vals < floor))
        clipped_vals = np.maximum(vals, floor)
        mean = math.fsum(clipped_vals.ravel().tolist()) / total
        return mean, clipped, total
    # theta-independent weight: one node represents the whole torus
    val = float(torus_values(w, tuple(float(x) for x in t), tuple(0.0 for _ in t)))
    total = nodes**n
    if val < floor:
        return floor, total, total
    return val, 0, total


def torus_mean(w, t: Sequence[float], nodes: int, floor: float = CLIP_FLOOR) -> float:
    """Mean of w over the torus |z_k| = exp(t_k), equispaced tensor quadrature.

    Values below `floor` (including -inf) are clipped at `floor`; the
    log-singularities this tames are integrable, so the bias is below
    the schedule tolerances at 64+ nodes per angle.
    """
    if any(x >= 0 for x in t):
        raise ValueError("torus radii must satisfy t_k < 0")
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    mean, _, _ = _torus_stats(w, t, nodes, floor)
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


def sphere_mean(w, r: float, nodes: int, dim: int, radial_nodes: int | None = None,
                floor: float = CLIP_FLOOR) -> float:
    """Mean of w over the sphere |z| = exp(r) in C^dim (uniform measure)."""
    if r >= 0:
        raise ValueError("radius exponent must be negative")
    n = dim
    if radial_nodes is None:
        radial_nodes = 64 if n == 2 else 16
    profiles = _equal_area_log_profiles(n, radial_nodes)
    _check_grid((radial_nodes,) * (n - 1) + ((nodes,) * n if depends_on_theta(w) else ()))
    t = tuple(r + p for p in profiles)
    if depends_on_theta(w):
        theta_axes = []
        for k in range(n):
            offset = ((k + 1) * _GOLDEN) % 1.0
            g = 2.0 * math.pi * (np.arange(nodes) + offset) / nodes
            shape = [1] * (profiles[0].ndim)
            shape[-(n - k)] = nodes
            theta_axes.append(g.reshape(shape))
        full_shape = np.broadcast_shapes(
            *(p.shape for p in t), *(g.shape for g in theta_axes)
        )
        vals = np.broadcast_to(torus_values(w, t, theta_axes), full_shape)
    else:
        theta = tuple(0.0 for _ in range(n))
        full_shape = np.broadcast_shapes(*(p.shape for p in t))
        vals = np.broadcast_to(torus_values(w, t, theta), full_shape)
    vals = np.maximum(vals, floor)
    return math.fsum(vals.ravel().tolist()) / vals.size


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


def directional_lelong_numeric(w, a: Sequence[float], sched: RadialSchedule = DEFAULT_SCHEDULE) -> LimitEstimate:
    """Estimate the directional density of w at the origin along a > 0."""
    av = tuple(float(x) for x in a)
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
    from .weights import dimension_of

    n = dim if dim is not None else dimension_of(w)
    if n not in (1, 2, 3):
        raise ValueError("classical estimates support dimensions 1..3 only")

    def level(r):
        mean = sphere_mean(w, r, sched.angular_nodes, n, radial_nodes)
        return mean, 0, 1

    est = _sweep_levels(level, sched, "sphere probe")
    diag = directional_lelong_numeric(w, (1.0,) * n, sched)
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


def swept_measure_apply(S_phi: ExponentSet, w, r: float, nodes: int) -> float:
    """Apply the level-r boundary measure of the weight to w.

    n! times the atom-mass-weighted sum of torus means of w at radii
    |r| * t0 for the atoms t0 of the weight's boundary measure.
    """
    if r >= 0:
        raise ValueError("level must be negative")
    gm = gamma_measure(S_phi)
    n = S_phi.dimension
    total = 0.0
    for t0, mass in gm.atoms:
        total += torus_mean(w, _atom_radii(t0, r), nodes) * float(mass)
    return math.factorial(n) * total


def generalized_lelong_numeric(S_phi: ExponentSet, w, sched: RadialSchedule = DEFAULT_SCHEDULE) -> LimitEstimate:
    """Estimate the density of w against the weight by swept means over the schedule."""
    gm = gamma_measure(S_phi)
    n = S_phi.dimension
    fact = math.factorial(n)

    def level(r):
        total = 0.0
        clipped = 0
        count = 0
        for t0, mass in gm.atoms:
            mean, c, tot = _torus_stats(w, _atom_radii(t0, r), sched.angular_nodes)
            total += mean * float(mass)
            clipped += c
            count += tot
        return fact * total, clipped, max(count, 1)

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
    _check_grid((sched.angular_nodes,))

    def level(r):
        t = [0.0, 0.0]
        t[axis - 1] = float("-inf")
        t[other] = r
        offset = _GOLDEN % 1.0
        g = 2.0 * math.pi * (np.arange(sched.angular_nodes) + offset) / sched.angular_nodes
        theta = [0.0, 0.0]
        theta[other] = g
        vals = np.asarray(torus_values(w, tuple(t), tuple(theta)), dtype=float)
        vals = np.broadcast_to(vals, g.shape)
        total = vals.size
        clipped = int(np.count_nonzero(vals < CLIP_FLOOR))
        if clipped == total:
            raise SliceUndefinedError(
                f"slice undefined: restriction to z_{axis} = 0 is identically -inf"
            )
        mean = math.fsum(np.maximum(vals, CLIP_FLOOR).ravel().tolist()) / total
        return mean, clipped, total

    return _sweep_levels(level, sched, f"slice probe on axis {axis}")


def indicator_profile(w, directions: Sequence[Sequence[float]],
                      sched: RadialSchedule = DEFAULT_SCHEDULE) -> tuple[ProfileEntry, ...]:
    """Directional estimates over a grid of directions; errors are per entry."""
    entries = []
    for a in directions:
        av = tuple(float(x) for x in a)
        try:
            est = directional_lelong_numeric(w, av, sched)
            entries.append(ProfileEntry(av, est, None))
        except (ValueError, NonPshStarProbeError) as exc:
            entries.append(ProfileEntry(av, None, str(exc)))
    return tuple(entries)
