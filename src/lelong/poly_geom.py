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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterable, Sequence

from .exactgeom import Vec, _bareiss, _fan, dot, double_description, polytope_volume, vec

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

    def min_support(self, a: Sequence) -> Fraction:
        """min over generators of <J, a>; the directional density at a."""
        av = vec(a)
        return min(dot(p, av) for p in self.points)


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
    extreme_points: tuple[Vec, ...]


@dataclass(frozen=True)
class GammaMeasure:
    atoms: tuple[tuple[Vec, Fraction], ...]
    total_mass: Fraction


def _check_axes(S: ExponentSet) -> None:
    for k in range(S.dimension):
        if all(p[k] == 0 for p in S.points):
            raise DegenerateIndicatorError(k + 1)


def _memo(fn):
    """fn(points, n), memoized per process on (tuple(vec(p) for p in points), n).

    The key is built before the lookup, so a float raises TypeError on
    every call, and ints, 'p/q' strings and Fractions of equal value
    share one entry and get the same Fraction results.  Results are
    tuples; exceptions (BudgetExceeded among them) are not stored.
    """
    cached = lru_cache(maxsize=1024)(fn)

    @wraps(fn)
    def memo(points: Sequence[Sequence], n: int):
        return cached(tuple(vec(p) for p in points), n)

    memo.cache_clear = cached.cache_clear
    return memo


@_memo
def _diagram(points: tuple[Vec, ...], n: int) -> tuple[
    tuple[tuple[Vec, tuple[Vec, ...]], ...], tuple[tuple[Vec, tuple[tuple[int, ...], ...]], ...]
]:
    """One double-description pass over the sublevel polyhedron of the points.

    The points J are distinct, with coordinates >= 0; the zero vector is
    allowed.  The rows over (t, lam) are the orthant t_k <= 0, -lam <= 0,
    which starts the pass, and <J, t> + lam <= 0 for each J.  Returns the
    sorted vertices t0, each with its dual face (the hull vertices J with
    <J, t0> = -1), and the fan of f: each hull vertex J of conv(J) + R_+^n
    with the t-parts of the rays active on its row.  The hull vertices
    are the J whose constraint is a facet, i.e. has incident rays of
    rank n: by Farkas, exactly the J that alone attain the max at some
    strictly negative t.  Their rays (vertices, lam > 0, and directions
    -e_k with J_k = 0, lam = 0) are the extreme rays of the linearity
    cone {t <= 0 : f(t) = <J, t>}, and these cones tile the orthant.  No
    axis check is made here, since bounded faces exist even when an axis
    direction is unblocked.

    The pass runs once per distinct canonical set per process (see
    `_memo`), so a count of DD work made per task sees it only on a miss.
    """
    orthant = [[(-1 if k == n else 1) * int(i == k) for i in range(n + 1)] for k in range(n + 1)]
    rays = double_description(orthant + [list(J) + [1] for J in points], n + 1)
    active = [[ray for ray, act in rays if n + 1 + j in act] for j in range(len(points))]
    hull = [j for j, on in enumerate(active) if len(on) >= n and len(_bareiss(list(on))[1]) == n]
    vertices = tuple(sorted(
        (tuple(Fraction(x, ray[n]) for x in ray[:n]),
         tuple(points[j] for j in hull if n + 1 + j in act))
        for ray, act in rays
        if ray[n] > 0
    ))
    return vertices, tuple((points[j], tuple(ray[:n] for ray in active[j])) for j in hull)


@_memo
def _pl_cones(points: tuple[Vec, ...], n: int) -> tuple[tuple[tuple[tuple[int, ...], ...], Vec, int], ...]:
    """Simplicial cones covering s <= 0 on each of which max_J <J, s> is linear.

    Returns (rays, J, |det rays|) with J the generator active on the cone.
    The linearity cone of each hull vertex J and its extreme rays come
    from the double-description pass of `_diagram`.  The cut of the cone
    at sum(s) = -1 is triangulated, and each simplex keeps the primitive
    integer rays through its vertices.  The cut points are scaled by L,
    the lcm of the -sum(v), to the integer points v * (L / -sum(v)), and
    triangulated at that scale.  A zero generator (u = 0 on s <= 0) has
    the row lam <= 0, which leaves the orthant as the one cone.
    """
    cones = []
    for J, rays in _diagram(sorted(set(points)), n)[1]:
        scale = math.lcm(*(-sum(v) for v in rays))
        by_cut = {tuple(x * (scale // -sum(v)) for x in v): v for v in rays}
        for simplex in _fan(list(by_cut), scale):
            V = tuple(by_cut[p] for p in simplex)
            cones.append((V, J, abs(_bareiss([list(v) for v in V])[2])))
    return tuple(cones)


def sublevel_vertices(S: ExponentSet) -> SublevelPolyhedron:
    """Extreme points of {t <= 0 : <J, t> <= -1 for every generator J}.

    Every vertex automatically lies on the level set f(t) = -1: a
    feasible vertex must have at least one generator constraint active,
    which pins the max at exactly -1.  The pass checks this on its active
    rows: the max is attained on a face of the Newton polyhedron, so
    every vertex has a nonempty dual face.
    """
    _check_axes(S)
    vertices = _diagram(S.points, S.dimension)[0]
    assert all(face for _, face in vertices), "a vertex off the level set"
    return SublevelPolyhedron(extreme_points=tuple(t0 for t0, _ in vertices))


def dominated_hull(S: ExponentSet) -> NewtonDiagramStruct:
    """Vertices and bounded faces of conv(S.points) + R_+^n.

    The bounded faces are the dual faces of the strictly negative
    vertices of the sublevel polyhedron.
    """
    vertices, fan = _diagram(S.points, S.dimension)
    return NewtonDiagramStruct(
        generators=S,
        hull_vertices=tuple(J for J, _ in fan),
        bounded_faces=tuple(
            NewtonDiagramFace(vertices=face, normal=t0)
            for t0, face in vertices
            if face and all(x < 0 for x in t0)
        ),
    )


def dual_face(S: ExponentSet, t0: Sequence) -> tuple[Vec, ...]:
    """Hull vertices lying on the supporting hyperplane <a, t0> = -1."""
    t0v = vec(t0)
    _check_axes(S)
    faces = dict(_diagram(S.points, S.dimension)[0])
    if t0v not in faces:
        raise ValueError(f"{t0v} is not an extreme point of the sublevel polyhedron")
    return faces[t0v]


def cone_volume(face_vertices: Sequence[Sequence], dimension: int) -> Fraction:
    """Exact volume of conv({0} u face_vertices); 0 when the cone is not full-dimensional."""
    return polytope_volume([(0,) * dimension, *face_vertices], dimension)


def gamma_measure(S: ExponentSet) -> GammaMeasure:
    """Atomic measure on the sublevel extreme points, weighted by cone volumes.

    Atoms with zero mass (possible when a vertex touches a coordinate
    wall and its dual face is lower-dimensional) are dropped: masses are
    positive by construction of the measure.
    """
    return _measure(S)[1]


def _measure(S: ExponentSet) -> tuple[tuple[Vec, ...], GammaMeasure]:
    """Every sublevel extreme point, zero-mass ones included, and the measure, from one diagram."""
    _check_axes(S)
    return _masses(S.points, S.dimension)


@_memo
def _masses(points: tuple[Vec, ...], n: int) -> tuple[tuple[Vec, ...], GammaMeasure]:
    vertices = _diagram(points, n)[0]
    atoms = tuple((t0, mass) for t0, face in vertices if (mass := cone_volume(face, n)) > 0)
    return tuple(t0 for t0, _ in vertices), GammaMeasure(atoms, Fraction(sum(m for _, m in atoms)))
