"""Check one emitted report against the expectation the corpus computed for it."""

from __future__ import annotations

import math
from fractions import Fraction as F

import corpus as C
from oracles import dot

EXPECTED_STATUS = {"bounds": "pass", "sandwich": "pass"}


def _vec(v) -> tuple:
    return tuple(F(x) for x in v)


def check(entry: dict, report: dict, values: dict) -> str | None:
    """None when the report is right; otherwise what is wrong.

    `values` maps entry ids to exact values already checked, for the
    relations between tasks (homogeneity, n! * total mass = Newton number).
    """
    spec = entry["check"]
    kind = spec["kind"]
    if report["summary"]["total"] != 1 or len(report["tasks"]) != 1:
        return "report does not hold exactly one task"
    task = report["tasks"][0]
    want_status = EXPECTED_STATUS.get(kind, "ok")
    if task["status"] != want_status:
        return f"status {task['status']} (want {want_status}): {task.get('error', '')}"
    res = task["result"]
    return _CHECKS[kind](entry, spec, res, values)


def _value(entry, spec, res, values):
    got = F(res["value"])
    values[entry["id"]] = got
    if got != F(spec["exact"]):
        return f"value {got}, oracle {spec['exact']}"
    return None


def _any_value(entry, spec, res, values):
    got = F(res["value"])
    values[entry["id"]] = got
    return None if got > 0 else f"value {got} is not positive"


def _scaled(entry, spec, res, values):
    got = F(res["value"])
    want = F(spec["factor"]) * values[spec["of"]]
    return None if got == want else f"value {got}, homogeneity gives {want}"


def _gamma(entry, spec, res, values):
    points = [_vec(p) for p in spec["points"]]
    n = len(points[0])
    atoms = [(_vec(a["vertex"]), F(a["mass"])) for a in res["atoms"]]
    total = F(res["total_mass"])
    if total != sum((m for _, m in atoms), F(0)):
        return "total mass differs from the sum of the atoms"
    for t0, mass in atoms:
        if mass <= 0 or any(x > 0 for x in t0):
            return f"atom {t0} has mass {mass} or leaves the negative orthant"
        if max(dot(J, t0) for J in points) != -1:
            return f"atom {t0} is off the level set max_J <J,t> = -1"
    if "atoms" in spec:
        want = {(_vec(t0), F(m)) for t0, m in spec["atoms"]}
        if set(atoms) != want or len(atoms) != len(want):
            return f"atoms {atoms}, oracle {sorted(want)}"
    if "total" in spec and total != F(spec["total"]):
        return f"total mass {total}, oracle {spec['total']}"
    if "newton_of" in spec and math.factorial(n) * total != values[spec["newton_of"]]:
        return f"n! * total mass {math.factorial(n) * total} differs from the Newton number"
    return None


def _hull(entry, spec, res, values):
    points = [_vec(p) for p in spec["points"]]
    n = len(points[0])
    verts = [_vec(v) for v in res["hull_vertices"]]
    if not set(verts) <= set(points):
        return "a hull vertex is not a generator"
    for k in range(n):
        axis = [p for p in points if all(p[j] == 0 for j in range(n) if j != k)]
        if min(axis) not in verts:
            return f"the least generator on axis {k + 1} is missing from the hull"
    faces = []
    for f in res["bounded_faces"]:
        normal = _vec(f["normal"])
        fv = [_vec(v) for v in f["vertices"]]
        if any(x >= 0 for x in normal) or max(dot(J, normal) for J in points) != -1:
            return f"face normal {normal} does not support the diagram"
        if set(fv) != {v for v in verts if dot(v, normal) == -1} or len(fv) < n:
            return f"face {normal} has the wrong vertices"
        faces.append((normal, frozenset(fv)))
    if "vertices" in spec and set(verts) != {_vec(v) for v in spec["vertices"]}:
        return f"hull {verts}, oracle {spec['vertices']}"
    if "faces" in spec:
        want = {(_vec(t0), frozenset(_vec(v) for v in vs)) for t0, vs in spec["faces"]}
        if set(faces) != want:
            return "bounded faces differ from the oracle's edges"
    return None


def _face(entry, spec, res, values):
    got = {_vec(v) for v in res["face_vertices"]}
    want = {_vec(v) for v in spec["vertices"]}
    return None if got == want else f"face {sorted(got)}, oracle {sorted(want)}"


def _close(got: float, want: float, rel: float, absolute: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= max(absolute, rel * abs(want))


def _estimate(entry, spec, res, values):
    want = float(F(spec["exact"]))
    got = res["value"]
    if not _close(got, want, C.NUM_REL_TOL, C.NUM_ABS_TOL):
        return f"estimate {got}, exact density {want}"
    for level in res.get("per_level", []) if spec.get("jensen") else []:
        jensen = spec["jensen"].get(repr(float(level["r"])))
        if jensen is not None and not _close(level["mean"], jensen, C.JENSEN_REL_TOL, C.JENSEN_REL_TOL):
            return f"torus mean {level['mean']} at r={level['r']}, Jensen gives {jensen}"
    return None


def _close_value(entry, spec, res, values):
    got = res["value"]
    if not _close(got, spec["value"], spec["rel_tol"], spec["rel_tol"]):
        return f"value {got}, Jensen gives {spec['value']}"
    return None


def _bounds(entry, spec, res, values):
    exact, tau_sum, m = F(spec["exact"]), F(spec["tau_sum"]), spec["m"]
    if F(res["exact"]) != exact:
        return f"exact density {res['exact']}, oracle {exact}"
    if F(res["tau_sum"]) != tau_sum:
        return f"tau sum {res['tau_sum']}, oracle {tau_sum}"
    rec = res["estimates_by_m"][str(m)]
    est, tol = rec["estimate"], res["tolerance"]
    if rec["admissible"] != spec["admissible"]:
        return f"{rec['admissible']} admissible monomials, Howald gives {spec['admissible']}"
    if not _close(est, spec["estimate"], C.BERGMAN_EST_REL_TOL, C.BERGMAN_EST_REL_TOL):
        return f"density of u_{m} {est}, closed-form norms give {spec['estimate']}"
    lower = est <= float(exact) + tol
    upper = float(exact) <= est + float(tau_sum) / m + tol
    if (rec["lower_ok"], rec["upper_ok"]) != (lower, upper) or not (lower and upper):
        return f"bound flags {rec['lower_ok']}, {rec['upper_ok']}; recomputed {lower}, {upper}"
    return None


def _sandwich(entry, spec, res, values):
    for m, want in spec["c1"].items():
        got = res["c1_by_m"][m]
        if not abs(got - want) <= C.BERGMAN_C1_ABS_TOL:
            return f"C1 at m={m} is {got}, closed-form norms give {want}"
    for m, want in spec["c2"].items():
        got = res["c2_by_m"][m]
        if not _close(got, want, C.BERGMAN_C2_REL_TOL):
            return f"C2 at m={m} is {got}, closed-form norms give {want}"
    return None


_CHECKS = {
    "value": _value,
    "any_value": _any_value,
    "scaled": _scaled,
    "gamma": _gamma,
    "hull": _hull,
    "face": _face,
    "estimate": _estimate,
    "close": _close_value,
    "bounds": _bounds,
    "sandwich": _sandwich,
}
