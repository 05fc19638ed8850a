"""Seeded generators for the three workloads.

Each workload is a list of entries.  An entry is one problem file with a
single task (so that one `execute` + `emit` is one task) and a check:
the expected outcome, computed here by `oracles` and never by `lelong`.
The same (workload, seed) always gives the same files.

Numeric inputs are kept well conditioned: every estimate's limit is set
by one leading value (or a tie of them) at least `GAP` below the next
one, so the radial schedule's error stays far under the tolerance.  A
finite schedule cannot resolve near-ties at any accuracy; the numeric
layer's cost does not depend on this choice.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import oracles as O

GAP = F(1, 2)
NUM_REL_TOL = 0.02          # limit estimates against exact densities
NUM_ABS_TOL = 0.02
JENSEN_REL_TOL = 1e-6       # swept means and per-level means of binomials
BERGMAN_C1_ABS_TOL = 2e-3   # sandwich constants from closed-form norms
BERGMAN_C2_REL_TOL = 2e-3
BERGMAN_EST_REL_TOL = 5e-4  # the density sweep of u_m with closed-form norms
DEGREE_CAP = 8
SANDWICH_RADII = (0.05, 0.15, 0.3, 0.5, 0.7, 0.85)
SANDWICH_POLYRADII = (0.05,)
# the levels of `lelong run` with its default flags (--rmin -30 --levels 4)
CLI_LEVELS = (-3.75, -7.5, -15.0, -30.0)
NODES_3D = 128
SCHEDULE_3D = {"levels": list(CLI_LEVELS), "nodes": NODES_3D}


def rat(x):
    """JSON form of an exact rational: an int, or a 'p/q' string."""
    x = F(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec_json(p):
    return [rat(x) for x in p]


def fstr(x) -> str:
    return str(F(x))


class Corpus:
    def __init__(self):
        self.entries: list[dict] = []

    def add(self, dim: int, objects: dict, task: dict, check: dict) -> str:
        eid = f"t{len(self.entries):03d}"
        self.entries.append({
            "id": eid,
            "problem": {"dimension": dim, "objects": objects, "tasks": [task]},
            "check": check,
        })
        return eid


def mono(points) -> dict:
    return {"kind": "monomial_weight", "exponents": [vec_json(p) for p in points]}


def polylog(terms) -> dict:
    return {"kind": "polynomial_log",
            "terms": [{"coeff": [c.real, c.imag], "exponent": list(J)} for c, J in terms]}


# ---------------------------------------------------------------------------
# exact-diagrams


def chain(N: int):
    return [(i, (N - i) ** 2) for i in range(N + 1)]


def hyperbolic(k: int, K: int = 36):
    pts = [(x, y, math.ceil(K / (x * y))) for x in range(1, k + 1) for y in range(1, k + 1)]
    return pts + [(K, 0, 0), (0, K, 0), (0, 0, K)]


def random_convenient(rng: random.Random, n: int, interior: int, lo: int, hi: int, axis_hi: int):
    """Axis generators p_k e_k plus `interior` random points in [lo, hi]^n."""
    pts = set()
    for k in range(n):
        pts.add(tuple(rng.randint(2, axis_hi) if j == k else 0 for j in range(n)))
    while len(pts) < n + interior:
        pts.add(tuple(rng.randint(lo, hi) for _ in range(n)))
    return sorted(pts)


def _exact_2d(c: Corpus, rng: random.Random, S, partner):
    obj = {"s": mono(S)}
    c.add(2, obj, {"op": "newton_number", "phi": "s"},
          {"kind": "value", "exact": fstr(O.newton_2d(S))})
    atoms = O.atoms_2d(S)
    c.add(2, obj, {"op": "gamma_measure", "phi": "s"},
          {"kind": "gamma", "points": [vec_json(p) for p in S],
           "atoms": [[[fstr(x) for x in t0], fstr(m)] for t0, m in atoms],
           "total": fstr(O.covol_2d(S))})
    boundary = O.newton_boundary_2d(S)
    c.add(2, obj, {"op": "dominated_hull", "phi": "s"},
          {"kind": "hull", "points": [vec_json(p) for p in S],
           "vertices": [[fstr(x) for x in p] for p in boundary],
           "faces": [[[fstr(x) for x in t0], [[fstr(x) for x in p] for p in (boundary[i], boundary[i + 1])]]
                     for i, (t0, _) in enumerate(atoms)]})
    k = rng.randint(1, 2)
    c.add(2, obj, {"op": "tau", "phi": "s", "k": k},
          {"kind": "value", "exact": fstr(O.tau_nd(S, k))})
    i = rng.randrange(len(atoms))
    t0 = atoms[i][0]
    c.add(2, obj, {"op": "dual_face", "phi": "s", "t0": vec_json(t0)},
          {"kind": "face", "vertices": [[fstr(x) for x in p] for p in (boundary[i], boundary[i + 1])]})
    c.add(2, {"a": mono(S), "b": mono(partner)}, {"op": "generalized_lelong_exact", "u": "a", "phi": "b"},
          {"kind": "value", "exact": fstr(O.generalized_2d(S, partner))})


def _exact_nd(c: Corpus, S, factor, taus=(), with_hull=True):
    """newton, homogeneity partner, gamma and hull properties, tau for an n-D set."""
    n = len(S[0])
    obj = {"s": mono(S)}
    base = c.add(n, obj, {"op": "newton_number", "phi": "s"}, {"kind": "any_value"})
    scaled = [tuple(F(factor) * x for x in p) for p in S]
    c.add(n, {"s": mono(scaled)}, {"op": "newton_number", "phi": "s"},
          {"kind": "scaled", "of": base, "factor": fstr(F(factor) ** n)})
    c.add(n, obj, {"op": "gamma_measure", "phi": "s"},
          {"kind": "gamma", "points": [vec_json(p) for p in S], "newton_of": base})
    if with_hull:
        c.add(n, obj, {"op": "dominated_hull", "phi": "s"},
              {"kind": "hull", "points": [vec_json(p) for p in S]})
    for k in taus:
        c.add(n, obj, {"op": "tau", "phi": "s", "k": k},
              {"kind": "value", "exact": fstr(O.tau_nd(S, k))})


def _exact_simplex(c: Corpus, rng: random.Random, p, partner):
    n = len(p)
    S = [tuple(p[k] if j == k else 0 for j in range(n)) for k in range(n)]
    obj = {"s": mono(S)}
    c.add(n, obj, {"op": "newton_number", "phi": "s"},
          {"kind": "value", "exact": fstr(O.simplex_newton(p))})
    t0 = O.simplex_atom(p)
    c.add(n, obj, {"op": "gamma_measure", "phi": "s"},
          {"kind": "gamma", "points": [vec_json(q) for q in S],
           "atoms": [[[fstr(x) for x in t0], fstr(O.simplex_newton(p) / math.factorial(n))]],
           "total": fstr(O.simplex_newton(p) / math.factorial(n))})
    c.add(n, obj, {"op": "dual_face", "phi": "s", "t0": vec_json(t0)},
          {"kind": "face", "vertices": [[fstr(x) for x in q] for q in S]})
    k = rng.randint(1, n)
    c.add(n, obj, {"op": "tau", "phi": "s", "k": k},
          {"kind": "value", "exact": fstr(O.simplex_newton([x for j, x in enumerate(p) if j != k - 1]))})
    c.add(n, {"a": mono(partner), "b": mono(S)}, {"op": "generalized_lelong_exact", "u": "a", "phi": "b"},
          {"kind": "value", "exact": fstr(O.simplex_generalized(partner, p))})


def exact_diagrams(seed: int) -> Corpus:
    rng = random.Random(f"exact-diagrams:{seed}")
    c = Corpus()
    for N in (3, 4, 5, 6, 7, 8, 10):
        _exact_2d(c, rng, chain(N), random_convenient(rng, 2, 3, 1, 8, 12))
    for size in (2, 3, 4, 5, 6, 7):
        S = random_convenient(rng, 2, size, 1, 10, 14)
        _exact_2d(c, rng, S, random_convenient(rng, 2, 2, 1, 6, 9))
    _exact_nd(c, hyperbolic(2), 2, taus=(1, 2, 3))
    for size in (1, 2, 2, 3):
        _exact_nd(c, random_convenient(rng, 3, size, 1, 3, 6), F(3, 2), taus=(rng.randint(1, 3),))
    for n in (3, 4):
        p = [rng.randint(2, 7) for _ in range(n)]
        _exact_simplex(c, rng, p, random_convenient(rng, n, 2, 0, 4, 6))
    for size in (1, 1):
        _exact_nd(c, random_convenient(rng, 4, size, 1, 2, 4), 2, with_hull=False)
    return c


# ---------------------------------------------------------------------------
# torus-quadrature


def _coeff(rng: random.Random) -> complex:
    mod = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    arg = rng.uniform(-math.pi, math.pi)
    return complex(round(mod * math.cos(arg), 6), round(mod * math.sin(arg), 6))


def _leading_gap(exponents, a) -> F | None:
    vals = sorted({O.dot(J, a) for J in exponents})
    return vals[1] - vals[0] if len(vals) > 1 else None


def _well_separated(exponents, directions) -> bool:
    return all((g is None or g >= GAP) for g in (_leading_gap(exponents, a) for a in directions))


def _poly2(rng: random.Random, shape: str):
    """Convenient 2-D exponent sets: 'binomial', 'homog3' and 'homog4' have
    rank-1 difference lattices, 'generic3' and 'generic4' rank 2."""
    if shape == "binomial":
        return [(rng.randint(1, 5), 0), (0, rng.randint(1, 5))]
    if shape.startswith("homog"):
        d = rng.randint(3, 5)
        inner = rng.sample(range(1, d), int(shape[-1]) - 2)
        return [(d, 0), (0, d)] + [(j, d - j) for j in sorted(inner)]
    count = int(shape[-1])
    pts = {(rng.randint(2, 6), 0), (0, rng.randint(2, 6))}
    while len(pts) < count:
        pts.add((rng.randint(1, 3), rng.randint(1, 3)))
    return sorted(pts)


def _poly3(rng: random.Random, count: int):
    """Exponents with every entry positive: each term's phase then spans the
    whole 128^3 grid, so the evaluation cost depends on the term count only."""
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(1, 3) for _ in range(3)))
    return sorted(pts)


def _swept_expect(terms, atoms, r: float, n: int) -> float | None:
    """n! sum mass * Jensen mean at |r| t0, or None if some atom is near a tie."""
    total = 0.0
    for t0, mass in atoms:
        t = tuple(abs(r) * float(x) for x in t0)
        if O.jensen_gap(terms, t) < 1.0:
            return None
        total += O.jensen_mean(terms, t) * float(mass)
    return math.factorial(n) * total


def _direction(rng: random.Random, n: int, hi: int = 4):
    return tuple(rng.randint(1, hi) for _ in range(n))


SHAPES_2D = ("binomial", "binomial", "homog3", "generic3", "homog4", "generic4")


def _draw_2d(rng: random.Random):
    """A 2-D weight with three atoms and one polynomial per shape, each with a
    direction, all well separated; a weight that leaves some shape no
    separated draw is drawn again."""
    while True:
        phi2 = random_convenient(rng, 2, 3, 1, 5, 8)
        if len(O.atoms_2d(phi2)) != 3:
            continue
        neg2 = [tuple(-x for x in t0) for t0, _ in O.atoms_2d(phi2)]
        drawn = []
        for shape in SHAPES_2D:
            for _ in range(50):
                J, a = _poly2(rng, shape), _direction(rng, 2)
                if _well_separated(J, [a] + neg2):
                    drawn.append((J, a))
                    break
            else:
                break
        if len(drawn) == len(SHAPES_2D):
            return phi2, drawn


def torus_quadrature(seed: int) -> Corpus:
    rng = random.Random(f"torus-quadrature:{seed}")
    c = Corpus()
    phi2, drawn = _draw_2d(rng)
    atoms2 = O.atoms_2d(phi2)
    for J, a in drawn:
        terms = [(_coeff(rng), j) for j in J]
        obj = {"w": polylog(terms), "phi": mono(phi2)}
        c.add(2, obj, {"op": "directional_lelong_numeric", "w": "w", "a": list(a)},
              {"kind": "estimate", "exact": fstr(O.poly_order(J, a)),
               "jensen": _jensen_levels(terms, a) if len(J) == 2 else None})
        c.add(2, obj, {"op": "generalized_lelong_numeric", "phi": "phi", "w": "w"},
              {"kind": "estimate", "exact": fstr(O.generalized_2d(J, phi2))})
        k = rng.randint(1, 2)
        c.add(2, obj, {"op": "slice_lelong", "w": "w", "k": k},
              {"kind": "estimate", "exact": fstr(min(j[2 - k] for j in J if j[k - 1] == 0))})
        if len(J) == 2:
            while True:
                r = -float(rng.randint(3, 8))
                want = _swept_expect(terms, atoms2, r, 2)
                if want is not None:
                    break
                terms = [(_coeff(rng), j) for j in J]
            obj = {"w": polylog(terms), "phi": mono(phi2)}
            c.add(2, obj, {"op": "swept_measure_apply", "phi": "phi", "w": "w", "r": r, "nodes": 256},
                  {"kind": "close", "value": want, "rel_tol": JENSEN_REL_TOL})
    # 2-D classical density: the order of vanishing, min_J |J|
    J = _poly2(rng, "generic3")
    terms = [(_coeff(rng), j) for j in J]
    c.add(2, {"w": polylog(terms)}, {"op": "classical_lelong_numeric", "w": "w"},
          {"kind": "estimate", "exact": fstr(min(sum(j) for j in J))})
    # 3-D weights on 128 nodes against a simplex weight
    p = [rng.randint(2, 6) for _ in range(3)]
    phi3 = [tuple(p[k] if j == k else 0 for j in range(3)) for k in range(3)]
    atom3 = [(O.simplex_atom(p), O.simplex_newton(p) / 6)]
    neg3 = [tuple(-x for x in atom3[0][0])]
    for count, op in ((2, "swept_measure_apply"), (4, "directional_lelong_numeric")):
        while True:
            J = _poly3(rng, count)
            a = _direction(rng, 3, 3)
            terms = [(_coeff(rng), j) for j in J]
            if not _well_separated(J, [a] + neg3):
                continue
            if op != "swept_measure_apply":
                break
            r = -float(rng.randint(3, 8))
            want = _swept_expect(terms, atom3, r, 3)
            if want is not None:
                break
        obj = {"w": polylog(terms), "phi": mono(phi3)}
        if op == "directional_lelong_numeric":
            c.add(3, obj, {"op": op, "w": "w", "a": list(a), "schedule": SCHEDULE_3D},
                  {"kind": "estimate", "exact": fstr(O.poly_order(J, a))})
        else:
            c.add(3, obj, {"op": op, "phi": "phi", "w": "w", "r": r, "nodes": NODES_3D},
                  {"kind": "close", "value": want, "rel_tol": JENSEN_REL_TOL})
    return c


def _jensen_levels(terms, a):
    """Jensen means at each schedule level whose two moduli differ by >= 1."""
    out = {}
    for r in CLI_LEVELS:
        t = tuple(r * float(x) for x in a)
        if O.jensen_gap(terms, t) >= 1.0:
            out[repr(r)] = O.jensen_mean(terms, t)
    return out


# ---------------------------------------------------------------------------
# bergman-bounds

# Slopes and m stay where the degree cap 8 holds the basis that decides the
# bounds: with steeper slopes the truncated basis fails the checks at m = 3, 4
# (a fault of the cap, see CHANGES.md), which would make failures depend on the seed.
SLOPES = (F(1), F(3, 2), F(2))
M_LEVELS = (1, 2, 3, 4)


def _pl_weight(a, b) -> dict:
    return {"kind": "expr", "expr": {"node": "max", "children": [
        {"node": "scale", "factor": rat(a), "child": {"node": "coord_log", "axis": 1}},
        {"node": "scale", "factor": rat(b), "child": {"node": "coord_log", "axis": 2}},
    ]}}


def bergman_bounds(seed: int) -> Corpus:
    rng = random.Random(f"bergman-bounds:{seed}")
    c = Corpus()
    while True:
        phi = random_convenient(rng, 2, 2, 1, 4, 6)
        if len(O.atoms_2d(phi)) == 2:
            break
    tau_sum = O.tau_nd(phi, 1) + O.tau_nd(phi, 2)
    u_a, u_b = rng.sample(SLOPES, 2)
    obj = {"u": _pl_weight(u_a, u_b), "phi": mono(phi)}
    exact = O.generalized_2d([(u_a, 0), (0, u_b)], phi)
    for m in M_LEVELS:
        c.add(2, obj, {"op": "lelong_bounds_check", "u": "u", "phi": "phi", "m_list": [m],
                       "degree_cap": DEGREE_CAP},
              {"kind": "bounds", "m": m, "exact": fstr(exact), "tau_sum": fstr(tau_sum),
               "estimate": O.um_sweep_estimate(u_a, u_b, m, DEGREE_CAP, phi, CLI_LEVELS),
               "admissible": len(O.admissible_set(u_a, u_b, m, DEGREE_CAP))})
    consts = {m: O.sandwich_constants(u_a, u_b, m, DEGREE_CAP, SANDWICH_RADII, SANDWICH_POLYRADII)
              for m in M_LEVELS}
    c.add(2, obj, {"op": "sandwich_check", "u": "u", "m_list": list(M_LEVELS), "degree_cap": DEGREE_CAP},
          {"kind": "sandwich", "c1": {str(m): v[0] for m, v in consts.items()},
           "c2": {str(m): v[1] for m, v in consts.items()}})
    return c


GENERATORS = {
    "exact-diagrams": exact_diagrams,
    "torus-quadrature": torus_quadrature,
    "bergman-bounds": bergman_bounds,
}
