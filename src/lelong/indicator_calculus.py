"""Exact Lelong-number calculus on piecewise-linear indicators.

An indicator here is the function y -> max_J <J, log|y|> on the unit
polydisk, canonically represented by its generating exponent set reduced
to the vertices of the associated Newton polyhedron.  Directional
densities are exact minima of linear forms, and generalized densities
against a second (weight) exponent set are atom sums against the
boundary measure of the weight's sublevel polyhedron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactgeom import frac, vec
from .poly_geom import ExponentSet, dominated_hull, gamma_measure

__all__ = [
    "Indicator",
    "LelongValue",
    "indicator_eval",
    "directional_lelong_exact",
    "generalized_lelong_exact",
    "newton_number",
    "tau",
]

_KINDS = ("directional", "generalized", "newton_number", "tau")


@dataclass(frozen=True)
class LelongValue:
    value: Fraction
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.value < 0:
            raise ValueError(f"negative density {self.value}")

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class Indicator:
    """Canonical form: generators reduced to hull vertices.

    Two indicators are equal iff their reduced generator sets are equal.
    """

    generators: ExponentSet

    @classmethod
    def of(cls, points, dimension: int | None = None) -> "Indicator":
        raw = ExponentSet.of(points, dimension)
        hull = dominated_hull(raw).hull_vertices
        return cls(ExponentSet.of(hull))


def indicator_eval(phi: Indicator | ExponentSet, y: Sequence[complex]) -> float:
    """max over generators J of <J, log|y|>, for y in the unit polydisk.

    A coordinate y_k = 0 contributes -inf only to generators with a
    positive k-th entry; the result is -inf when every generator is
    killed that way.
    """
    S = phi.generators if isinstance(phi, Indicator) else phi
    if len(y) != S.dimension:
        raise ValueError(f"point has dimension {len(y)}, indicator has {S.dimension}")
    logs = []
    for yk in y:
        m = abs(yk)
        if m >= 1:
            raise ValueError(f"point outside the open unit polydisk: |{yk}| >= 1")
        logs.append(math.log(m) if m > 0 else -math.inf)
    best = -math.inf
    for J in S.points:
        term = 0.0
        for Jk, lk in zip(J, logs):
            if Jk:
                term += float(Jk) * lk
        best = max(best, term)
    return best


def directional_lelong_exact(S_u: ExponentSet, a: Sequence) -> LelongValue:
    """Exact directional density min_J <J, a> for a strictly positive direction."""
    av = vec(a)
    if len(av) != S_u.dimension:
        raise ValueError("direction dimension mismatch")
    if any(x <= 0 for x in av):
        raise ValueError(f"direction must be strictly positive, got {av}")
    return LelongValue(S_u.min_support(av), "directional")


def generalized_lelong_exact(S_u: ExponentSet, S_phi: ExponentSet) -> LelongValue:
    """n! times the atom sum of directional densities against the weight measure."""
    if S_u.dimension != S_phi.dimension:
        raise ValueError(
            f"dimension mismatch: {S_u.dimension} vs {S_phi.dimension}"
        )
    n = S_u.dimension
    gm = gamma_measure(S_phi)
    total = Fraction(0)
    for t0, mass in gm.atoms:
        direction = tuple(-x for x in t0)
        if any(x == 0 for x in direction):
            # wall atom: the directional density extends continuously
            # (min of linear forms), evaluate it directly
            total += S_u.min_support(direction) * mass
        else:
            total += directional_lelong_exact(S_u, direction).value * mass
    return LelongValue(math.factorial(n) * total, "generalized")


def newton_number(S: ExponentSet) -> LelongValue:
    """Self-density of the generating set; equals n! times the total atom mass.

    It equals generalized_lelong_exact(S, S) as well: every atom t0 has
    min_J <J, -t0> = 1, so the pairing sums the masses.
    """
    return LelongValue(math.factorial(S.dimension) * gamma_measure(S).total_mass, "newton_number")


def tau(S_phi: ExponentSet, k: int) -> LelongValue:
    """Density of the k-th coordinate log against the weight (1-based axis)."""
    n = S_phi.dimension
    if not 1 <= k <= n:
        raise ValueError(f"axis {k} out of range 1..{n}")
    e_k = ExponentSet.of([tuple(frac(1 if i == k - 1 else 0) for i in range(n))])
    inner = generalized_lelong_exact(e_k, S_phi)
    return LelongValue(inner.value, "tau")
