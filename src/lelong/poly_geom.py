"""Exact geometry of Newton polyhedra and their boundary measures.

A finite set S of nonnegative rational exponent vectors generates the
convex piecewise-linear function f(t) = max_J <J, t> on the negative
orthant and the unbounded polyhedron conv(S) + R_+^n.  This module
computes, with exact rational arithmetic:

  * the vertices and bounded faces of conv(S) + R_+^n (the Newton
    diagram of the generating set),
  * the extreme points of the sublevel polyhedron {t <= 0 : f(t) <= -1},
  * for each extreme point, the dual face of the diagram and the volume
    of the cone it spans from the origin,
  * the resulting atomic boundary measure (one atom per extreme point,
    mass = cone volume), whose total mass is the volume of the region
    swept between the origin and the diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactgeom import (
    Constraint,
    Vec,
    dot,
    enumerate_vertices,
    fm_feasible,
    frac,
    polytope_volume,
    vec,
)

__all__ = [
    "DegenerateIndicatorError",
    "ExponentSet",
    "NewtonDiagramStruct",
    "SublevelPolyhedron",
    "GammaMeasure",
    "dominated_hull",
    "sublevel_vertices",
    "dual_face",
    "cone_volume",
    "gamma_measure",
]


class DegenerateIndicatorError(ValueError):
    """The generating set ignores a coordinate direction entirely."""

    def __init__(self, axis: int):
        self.axis = axis
        super().__init__(
            f"degenerate indicator: independent direction {axis} "
            f"(no generator has a positive coordinate {axis})"
        )


@dataclass(frozen=True)
class ExponentSet:
    """Finite set of nonzero exponent vectors in Q^n with coordinates >= 0."""

    dimension: int
    points: tuple[Vec, ...]

    @classmethod
    def of(cls, points: Iterable[Sequence], dimension: int | None = None) -> "ExponentSet":
        rows = [vec(p) for p in points]
        if not rows:
            raise ValueError("an exponent set needs at least one point")
        dims = {len(p) for p in rows}
        if len(dims) != 1:
            raise ValueError(f"dimension mismatch among points: {sorted(dims)}")
        n = dims.pop()
        if dimension is not None and dimension != n:
            raise ValueError(f"points have dimension {n}, expected {dimension}")
        for p in rows:
            if any(x < 0 for x in p):
                raise ValueError(f"negative exponent coordinate in {p}")
            if all(x == 0 for x in p):
                raise ValueError("the zero vector is not a valid exponent")
        return cls(n, tuple(sorted(set(rows))))

    def support_value(self, t: Sequence) -> Fraction:
        """f(t) = max over generators of <J, t>."""
        tv = vec(t)
        return max(dot(p, tv) for p in self.points)

    def min_support(self, a: Sequence) -> Fraction:
        """min over generators of <J, a>; the directional density at a."""
        av = vec(a)
        return min(dot(p, av) for p in self.points)

    def scaled(self, c) -> "ExponentSet":
        cf = frac(c)
        if cf <= 0:
            raise ValueError("scale factor must be positive")
        return ExponentSet.of([tuple(cf * x for x in p) for p in self.points])


@dataclass(frozen=True)
class NewtonDiagramFace:
    vertices: tuple[Vec, ...]
    normal: Vec  # rational t <= 0 with <J, normal> = -1 on the face


@dataclass(frozen=True)
class NewtonDiagramStruct:
    generators: ExponentSet
    hull_vertices: tuple[Vec, ...]
    bounded_faces: tuple[NewtonDiagramFace, ...]


@dataclass(frozen=True)
class SublevelPolyhedron:
    constraints: tuple[Constraint, ...]
    extreme_points: tuple[Vec, ...]
    level_set_descriptor: str


@dataclass(frozen=True)
class GammaMeasure:
    atoms: tuple[tuple[Vec, Fraction], ...]
    total_mass: Fraction


def _collapse(points: Sequence[Vec]) -> list[Vec]:
    """Drop duplicates and coordinatewise-dominated points."""
    pts = sorted(set(points))
    kept = []
    for p in pts:
        dominated = any(
            q != p and all(qx <= px for qx, px in zip(q, p)) for q in pts
        )
        if not dominated:
            kept.append(p)
    return kept


def _is_hull_vertex(p: Vec, others: Sequence[Vec], n: int) -> bool:
    # p is extreme for conv(S)+R_+^n iff some t < 0 strictly separates it;
    # by homogeneity that is feasibility of {t_k <= -1, <q - p, t> <= -1}.
    cons: list[Constraint] = []
    for k in range(n):
        e = tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))
        cons.append((e, Fraction(-1)))
    for q in others:
        cons.append((tuple(qx - px for qx, px in zip(q, p)), Fraction(-1)))
    return fm_feasible(cons, n)


def _sublevel_constraints(S: ExponentSet) -> list[Constraint]:
    n = S.dimension
    cons: list[Constraint] = [(p, Fraction(-1)) for p in S.points]
    for k in range(n):
        e = tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))
        cons.append((e, Fraction(0)))
    return cons


def sublevel_vertices(S: ExponentSet) -> SublevelPolyhedron:
    """Extreme points of {t <= 0 : <J, t> <= -1 for every generator J}.

    Every vertex automatically lies on the level set f(t) = -1: a
    feasible vertex must have at least one generator constraint active,
    which pins the max at exactly -1.
    """
    n = S.dimension
    for k in range(n):
        if all(p[k] == 0 for p in S.points):
            raise DegenerateIndicatorError(k + 1)
    cons = _sublevel_constraints(S)
    verts = enumerate_vertices(cons, n)
    for t0 in verts:
        assert S.support_value(t0) == -1, f"vertex {t0} off the level set"
    return SublevelPolyhedron(
        constraints=tuple(cons),
        extreme_points=tuple(verts),
        level_set_descriptor="{t in R_-^n : max_J <J,t> = -1}",
    )


def dominated_hull(S: ExponentSet) -> NewtonDiagramStruct:
    """Vertices and bounded faces of conv(S.points) + R_+^n."""
    hull = _hull_vertices(S)
    faces = []
    for t0 in _strict_negative_level_vertices(S):
        on_face = tuple(p for p in hull if dot(p, t0) == -1)
        if on_face:
            faces.append(NewtonDiagramFace(vertices=on_face, normal=t0))
    return NewtonDiagramStruct(
        generators=S,
        hull_vertices=tuple(hull),
        bounded_faces=tuple(faces),
    )


def _hull_vertices(S: ExponentSet) -> list[Vec]:
    candidates = _collapse(S.points)
    return [
        p
        for p in candidates
        if _is_hull_vertex(p, [q for q in candidates if q != p], S.dimension)
    ]


def _strict_negative_level_vertices(S: ExponentSet) -> list[Vec]:
    # bounded faces of the polyhedron correspond to vertices of the
    # sublevel set with strictly negative coordinates; those exist even
    # when an axis direction is unblocked, so skip the degeneracy check
    verts = enumerate_vertices(_sublevel_constraints(S), S.dimension)
    return [t0 for t0 in verts if all(x < 0 for x in t0)]


def dual_face(S: ExponentSet, t0: Sequence) -> tuple[Vec, ...]:
    """Hull vertices lying on the supporting hyperplane <a, t0> = -1."""
    t0v = vec(t0)
    sub = sublevel_vertices(S)
    if t0v not in sub.extreme_points:
        raise ValueError(f"{t0v} is not an extreme point of the sublevel polyhedron")
    return tuple(p for p in _hull_vertices(S) if dot(p, t0v) == -1)


def cone_volume(face_vertices: Sequence[Sequence], dimension: int) -> Fraction:
    """Exact volume of conv({0} u face_vertices).

    Computed by fanning a simplicial triangulation from the
    lexicographically smallest vertex; each simplex contributes
    |det| / n!.  Returns 0 when the cone is not full-dimensional.
    """
    origin = tuple(Fraction(0) for _ in range(dimension))
    pts = [origin] + [vec(p) for p in face_vertices]
    return polytope_volume(pts, dimension)


def gamma_measure(S: ExponentSet) -> GammaMeasure:
    """Atomic measure on the sublevel extreme points, weighted by cone volumes.

    Atoms with zero mass (possible when a vertex touches a coordinate
    wall and its dual face is lower-dimensional) are dropped: masses are
    positive by construction of the measure.
    """
    n = S.dimension
    sub = sublevel_vertices(S)
    hull = _hull_vertices(S)
    atoms = []
    total = Fraction(0)
    for t0 in sub.extreme_points:
        face = tuple(p for p in hull if dot(p, t0) == -1)
        mass = cone_volume(face, n)
        if mass > 0:
            atoms.append((t0, mass))
            total += mass
    return GammaMeasure(atoms=tuple(atoms), total_mass=total)


def complement_volume(S: ExponentSet) -> Fraction:
    """Volume of the orthant region cut off below the Newton diagram.

    Valid when every coordinate axis of exponent space carries a pure
    generator (p e_k), so the region is bounded:  it then equals
    M^n - Vol([0, M]^n  intersect  conv(S)+R_+^n)  for any box bound M
    at least the largest axis intercept.  Serves as an independent
    cross-check of the atom masses.
    """
    from .exactgeom import hpolytope_volume

    n = S.dimension
    for k in range(n):
        if not any(p[k] > 0 and all(p[j] == 0 for j in range(n) if j != k) for p in S.points):
            raise ValueError(f"no pure generator on axis {k + 1}; region is unbounded")
    M = max(x for p in S.points for x in p) + 1
    verts = [t0 for t0 in sublevel_vertices(S).extreme_points]
    cons: list[Constraint] = []
    for t0 in verts:
        cons.append((t0, Fraction(-1)))  # <a, t0> <= -1 cuts out the polyhedron
    for k in range(n):
        e = tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))
        ne = tuple(-x for x in e)
        cons.append((e, M))
        cons.append((ne, Fraction(0)))
    inside = hpolytope_volume(cons, n)
    return M**n - inside
