"""Exact Lelong-number calculus on piecewise-linear indicators.

An indicator here is the function y -> max_J <J, log|y|> on the unit
polydisk, given by its generating exponent set.  Directional
densities are exact minima of linear forms, and generalized densities
against a second (weight) exponent set are atom sums against the
boundary measure of the weight's sublevel polyhedron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactgeom import vec
from .poly_geom import ExponentSet, GammaMeasure, gamma_measure

__all__ = [
    "LelongValue",
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
    _check_dimensions(S_u, S_phi)
    return LelongValue(_density(S_u, gamma_measure(S_phi)), "generalized")


def _check_dimensions(S_u: ExponentSet, S_phi: ExponentSet) -> None:
    if S_u.dimension != S_phi.dimension:
        raise ValueError(f"dimension mismatch: {S_u.dimension} vs {S_phi.dimension}")


def _density(S_u: ExponentSet, gm: GammaMeasure) -> Fraction:
    """n! times the sum of mass * min_J <J, -t0> over the atoms t0 of gm, wall atoms included."""
    total = sum((S_u.min_support(tuple(-x for x in t0)) * mass for t0, mass in gm.atoms), Fraction(0))
    return math.factorial(S_u.dimension) * total


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
    return LelongValue(_tau(gamma_measure(S_phi), k, n), "tau")


def _tau(gm: GammaMeasure, k: int, n: int) -> Fraction:
    """n! times the sum of mass * (-t0_k) over the atoms t0 of gm: the density of log|z_k|."""
    return math.factorial(n) * sum((-t0[k - 1] * mass for t0, mass in gm.atoms), Fraction(0))
