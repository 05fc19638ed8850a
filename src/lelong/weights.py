"""Expression trees for pointwise-evaluable plurisubharmonic weights.

Node kinds: log-modulus of a complex polynomial, max of subtrees,
positive scaling, powers of |log|z_k|| with a minus sign, and plain
log|z_k|.  Evaluation works in logarithmic coordinates (t, theta) with
t_k = log|z_k| and theta_k = arg z_k, which keeps polynomial moduli
stable at arbitrarily deep radii and makes a value of -inf an ordinary
outcome rather than an overflow.

`torus_values` accepts broadcastable numpy arrays for both t and theta,
so a single call evaluates a whole quadrature grid.  Polynomial moduli
and the Bergman approximants of `demailly` are both log-sum-exps over
exponent rows, and share one kernel: `_log_rows` stacks the row
log-amplitudes log|c_j| + <J_j, t> and `_peak_shift` scales them by
their peak.  The shell-quadrature norms of `demailly` use `_peak_shift`
too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .exactgeom import Vec, frac
from .poly_geom import ExponentSet

__all__ = [
    "PolyLog",
    "CoordLog",
    "NegPowLog",
    "MaxOf",
    "Scale",
    "WeightExpr",
    "eval_expr",
    "torus_values",
    "depends_on_theta",
    "dimension_of",
    "scaling_transform",
    "indicator_support",
    "is_multicircled",
    "is_psh_star",
]


@dataclass(frozen=True)
class PolyLog:
    """log-modulus of a complex polynomial, given as (coefficient, exponent) terms."""

    terms: tuple[tuple[complex, tuple[int, ...]], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a polynomial needs at least one term")
        seen = set()
        dims = set()
        for c, J in self.terms:
            if c == 0:
                raise ValueError("zero coefficient; combine like terms first")
            if any(j < 0 or not isinstance(j, int) for j in J):
                raise ValueError(f"exponent vector must be nonnegative integers: {J}")
            if J in seen:
                raise ValueError(f"duplicate exponent vector {J}")
            seen.add(J)
            dims.add(len(J))
        if len(dims) != 1:
            raise ValueError("inconsistent exponent dimensions")

    @classmethod
    def of(cls, terms) -> "PolyLog":
        return cls(tuple((complex(c), tuple(int(j) for j in J)) for c, J in terms))


@dataclass(frozen=True)
class CoordLog:
    axis: int  # 1-based

    def __post_init__(self):
        if self.axis < 1:
            raise ValueError("axis is 1-based")


@dataclass(frozen=True)
class NegPowLog:
    """-|log|z_k||^p on the unit polydisk, p in (0, 1]."""

    axis: int
    power: Fraction

    def __post_init__(self):
        p = frac(self.power)
        if not 0 < p <= 1:
            raise ValueError(f"power must lie in (0, 1], got {p}")
        object.__setattr__(self, "power", p)
        if self.axis < 1:
            raise ValueError("axis is 1-based")


@dataclass(frozen=True)
class MaxOf:
    children: tuple["WeightExpr", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("max needs at least one child")

    @classmethod
    def of(cls, *children) -> "MaxOf":
        return cls(tuple(children))


@dataclass(frozen=True)
class Scale:
    factor: Union[Fraction, float]
    child: "WeightExpr"

    def __post_init__(self):
        if not float(self.factor) > 0:
            raise ValueError("scale factor must be positive")


WeightExpr = Union[PolyLog, CoordLog, NegPowLog, MaxOf, Scale]

_NEG_INF = float("-inf")


def torus_values(w, t: Sequence, theta: Sequence) -> np.ndarray:
    """Evaluate w on points with log-moduli t and arguments theta.

    t and theta entries may be scalars or broadcastable numpy arrays;
    entries of t equal to -inf restrict to a coordinate hyperplane.
    Objects outside the node algebra may participate by providing their
    own ``torus_values(t, theta)`` method; grid means may call it from
    several threads at once.  Its result is copied, so an array the
    object keeps is never written by a caller.
    """
    if hasattr(w, "torus_values"):
        return np.array(w.torus_values(t, theta), dtype=float)
    if isinstance(w, CoordLog):
        return np.asarray(t[w.axis - 1], dtype=float)
    if isinstance(w, NegPowLog):
        tk = np.asarray(t[w.axis - 1], dtype=float)
        with np.errstate(invalid="ignore"):
            # a 0-d point as a length-1 array: numpy's scalar power rounds
            # differently from its array loop, which grids run
            return (-np.abs(np.atleast_1d(tk)) ** float(w.power)).reshape(tk.shape)
    if isinstance(w, Scale):
        return float(w.factor) * torus_values(w.child, t, theta)
    if isinstance(w, MaxOf):
        vals = [torus_values(c, t, theta) for c in w.children]
        out = vals[0]
        for v in vals[1:]:
            out = np.maximum(out, v)
        return out
    if isinstance(w, PolyLog):
        return _polylog_values(w, t, theta)
    raise TypeError(f"not a weight expression: {type(w).__name__}")


def _log_rows(log_c: np.ndarray, exponents: np.ndarray, t) -> np.ndarray:
    """Row log-amplitudes log|c_j| + <J_j, t>, stacked on a leading axis.

    exponents holds one row J_j per entry of log_c.  Zero exponents
    contribute 0, so 0 * (-inf) never appears, and an axis that no row
    uses does not enter the shape.
    """
    ts = [np.asarray(x, dtype=float) for x in t]
    lead = (-1,) + (1,) * max((x.ndim for x in ts), default=0)
    g = 0.0
    with np.errstate(invalid="ignore"):
        for a, tk in zip(exponents.T, ts):
            if a.any():
                a = a.reshape(lead)
                g = g + np.where(a != 0, a * tk, 0.0)
    return log_c.reshape(lead) + g


def _peak_shift(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(peak, exp(g - peak)) over the leading axis of g.

    peak is an array (0-d for scalar points), -inf where every row is,
    and there the shifted terms are all 0.
    """
    peak = np.asarray(g.max(axis=0, initial=_NEG_INF))
    with np.errstate(invalid="ignore"):
        return peak, np.exp(np.where(peak == _NEG_INF, _NEG_INF, g - peak))


def _point_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the leading axis of x, each in the order of a one-point sum.

    numpy sums a 1-D array pairwise from 8 terms on, but a reduction over
    axis 0 adds the rows in sequence; with that axis last and contiguous,
    each point is summed as the 1-D array of its terms.
    """
    return np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)


def _polylog_values(w: PolyLog, t, theta) -> np.ndarray:
    """log|sum_J c_J z^J| as peak + log|sum_J a_J (c_J/|c_J|) prod_k e^(i J_k theta_k)|.

    The amplitudes a_J = exp(<J, t> + log|c_J| - peak) depend on t only.
    Each phase is a product of per-axis factors, so every complex exp
    runs on one theta array; the grid-sized work per term is the last
    multiply and the add.
    """
    log_c = np.array([math.log(abs(c)) for c, _ in w.terms])
    peak, amps = _peak_shift(_log_rows(log_c, np.array([J for _, J in w.terms], dtype=float), t))
    amps = amps * np.array([c / abs(c) for c, _ in w.terms]).reshape((-1,) + (1,) * peak.ndim)
    with np.errstate(divide="ignore"):
        acc = None
        for j, (_, J) in enumerate(w.terms):
            # an array, 0-d at a scalar point: with a numpy scalar on the left
            # the grid-sized products below take several times the page faults
            contrib = amps[j, ...]
            for k, Jk in enumerate(J):
                if Jk:
                    contrib = contrib * np.exp(1j * (Jk * np.asarray(theta[k], dtype=float)))
            if acc is None:
                acc = contrib
            elif np.shape(acc) == np.broadcast_shapes(np.shape(acc), np.shape(contrib)):
                acc += contrib
            else:
                acc = acc + contrib
        # where peak is -inf every amplitude is 0, so the sum is -inf as well
        return peak + np.log(np.abs(acc))


def eval_expr(w, z: Sequence[complex]):
    """Pointwise value of w at a complex vector; may return -inf."""
    t = []
    theta = []
    for zk in z:
        zk = complex(zk)
        m = abs(zk)
        t.append(math.log(m) if m > 0 else _NEG_INF)
        theta.append(cmath.phase(zk) if m > 0 else 0.0)
    val = torus_values(w, t, theta)
    return float(val)


def depends_on_theta(w) -> bool:
    """True when the value can vary along the torus directions."""
    if hasattr(w, "torus_values"):
        return bool(getattr(w, "theta_dependent", True))
    if isinstance(w, PolyLog):
        return len(w.terms) > 1
    if isinstance(w, Scale):
        return depends_on_theta(w.child)
    if isinstance(w, MaxOf):
        return any(depends_on_theta(c) for c in w.children)
    return False


def dimension_of(w) -> int:
    """Smallest ambient dimension the expression references."""
    if hasattr(w, "dimension"):
        return int(w.dimension)
    if isinstance(w, (CoordLog, NegPowLog)):
        return w.axis
    if isinstance(w, Scale):
        return dimension_of(w.child)
    if isinstance(w, MaxOf):
        return max(dimension_of(c) for c in w.children)
    if isinstance(w, PolyLog):
        return len(w.terms[0][1])
    raise TypeError(f"not a weight expression: {type(w).__name__}")


def _scale(factor, child):
    f = factor
    if isinstance(child, Scale):
        # collapse nested scalings; exact when both factors are rational
        if isinstance(f, Fraction) and isinstance(child.factor, Fraction):
            f = f * child.factor
        else:
            f = float(f) * float(child.factor)
        child = child.child
    if isinstance(f, Fraction) and f == 1:
        return child
    if isinstance(f, float) and f == 1.0:
        return child
    return Scale(f, child)


def _substitute_power(w, m: int):
    """Expression for y -> w(y_1^m, ..., y_n^m)."""
    if isinstance(w, PolyLog):
        return PolyLog(tuple((c, tuple(m * j for j in J)) for c, J in w.terms))
    if isinstance(w, CoordLog):
        return _scale(Fraction(m), w)
    if isinstance(w, NegPowLog):
        # |log|y_k^m||^p = m^p |log|y_k||^p
        p = w.power
        f: Union[Fraction, float]
        if p.denominator == 1:
            f = Fraction(m) ** p.numerator
        else:
            f = float(m) ** float(p)
        return _scale(f, w)
    if isinstance(w, MaxOf):
        return MaxOf(tuple(_substitute_power(c, m) for c in w.children))
    if isinstance(w, Scale):
        return _scale(w.factor, _substitute_power(w.child, m))
    raise TypeError(f"not a weight expression: {type(w).__name__}")


def scaling_transform(w, m: int):
    """The rescaled weight y -> (1/m) w(y_1^m, ..., y_n^m), exact on the tree."""
    if m < 1 or not isinstance(m, int):
        raise ValueError("m must be a positive integer")
    return _scale(Fraction(1, m), _substitute_power(w, m))


def _generators(w, n: int) -> tuple[list[Vec], bool]:
    """The generators J of w's indicator, padded to n coordinates, and whether w = max_J <J, log|z|>.

    That holds when every polynomial in w is one monomial with |c| = 1.  A scale
    factor is read as Fraction(factor), so a float is its exact dyadic rational.
    Raises ValueError on a sub-logarithmic node, TypeError outside the node algebra.
    """
    if isinstance(w, PolyLog):
        gens = [tuple(Fraction(j) for j in J) + (Fraction(0),) * (n - len(J)) for _, J in w.terms]
        return gens, len(w.terms) == 1 and abs(w.terms[0][0]) == 1
    if isinstance(w, CoordLog):
        return [tuple(Fraction(int(k == w.axis - 1)) for k in range(n))], True
    if isinstance(w, MaxOf):
        walks = [_generators(c, n) for c in w.children]
        return [J for gens, _ in walks for J in gens], all(exact for _, exact in walks)
    if isinstance(w, Scale):
        gens, exact = _generators(w.child, n)
        f = Fraction(w.factor)
        return [tuple(f * x for x in J) for J in gens], exact
    if isinstance(w, NegPowLog):
        raise ValueError("sub-logarithmic node has no piecewise-linear indicator")
    raise TypeError(f"not a weight expression: {type(w).__name__}")


def indicator_support(w, dimension: int | None = None) -> ExponentSet:
    """Exponent set generating the piecewise-linear indicator of w.

    Defined for the polynomial-log / coordinate-log / max / scale
    fragment, where float scale factors are exact dyadic rationals;
    raises for weights whose indicator is not piecewise linear.
    """
    n = dimension if dimension is not None else dimension_of(w)
    return ExponentSet.of(_generators(w, n)[0], n)


def is_multicircled(w) -> bool:
    """True when the value depends only on the coordinate moduli."""
    return not depends_on_theta(w)


def is_psh_star(w, axis: int, dimension: int | None = None) -> bool:
    """Whether the restriction of w to {z_axis = 0} is somewhere finite.

    Exact on the node algebra: a polynomial keeps a term free of
    z_axis, a coordinate log or power of one is finite off its own
    axis, a max needs one such child and a scaling its child.
    """
    n = dimension if dimension is not None else dimension_of(w)
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range 1..{n}")
    k = axis - 1
    if isinstance(w, PolyLog):
        return any(k >= len(J) or J[k] == 0 for _, J in w.terms)
    if isinstance(w, (CoordLog, NegPowLog)):
        return w.axis != axis
    if isinstance(w, MaxOf):
        return any(is_psh_star(c, axis, n) for c in w.children)
    if isinstance(w, Scale):
        return is_psh_star(w.child, axis, n)
    raise TypeError(f"not a weight expression: {type(w).__name__}")
