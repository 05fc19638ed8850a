"""Batch front end: problem files in, reports out.

A problem file is JSON with a dimension, named objects (exponent sets
under kind "monomial_weight", polynomial log-moduli under
"polynomial_log", expression trees under "expr") and a list of tasks.
Rationals are written as integers, "p/q" strings, or [num, den] pairs,
and survive the round trip exactly.  Reports serialize deterministically:
byte-identical output for identical input.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import demailly, indicator_calculus, numeric_oracle, poly_geom, weights
from .numeric_oracle import RadialSchedule

__all__ = ["ProblemFile", "Report", "parse_problem", "execute", "emit", "main"]


class ProblemError(ValueError):
    """Problem-file validation failure, with field context."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class ProblemFile:
    name: str
    dimension: int
    objects: dict[str, Any]
    tasks: tuple[dict, ...]


@dataclass
class Report:
    problem: str
    dimension: int
    config: dict
    tasks: list[dict] = field(default_factory=list)

    @property
    def any_error(self) -> bool:
        return any(t["status"] == "error" for t in self.tasks)

    @property
    def any_fail(self) -> bool:
        return any(t["status"] == "fail" for t in self.tasks)

    def exit_code(self) -> int:
        if self.any_error:
            return 1
        if self.any_fail:
            return 2
        return 0


# ---------------------------------------------------------------------------
# parsing


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ProblemError(where, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemError(where, f"bad rational string {value!r}: {exc}") from None
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, int) for v in value):
        if value[1] == 0:
            raise ProblemError(where, "zero denominator")
        return Fraction(value[0], value[1])
    raise ProblemError(
        where, f"expected int, 'p/q' or [num, den], got {json.dumps(value)}"
    )


def _parse_object(name: str, spec, dimension: int):
    where = f"objects.{name}"
    if not isinstance(spec, dict):
        raise ProblemError(where, "object must be a JSON object")
    kind = spec.get("kind")
    if kind == "monomial_weight":
        _require_keys(spec, {"kind", "exponents"}, where)
        rows = spec.get("exponents")
        if not isinstance(rows, list) or not rows:
            raise ProblemError(f"{where}.exponents", "expected a nonempty list of vectors")
        points = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dimension:
                raise ProblemError(
                    f"{where}.exponents[{i}]",
                    f"expected a vector of length {dimension}",
                )
            points.append([_rational(x, f"{where}.exponents[{i}][{j}]") for j, x in enumerate(row)])
        try:
            return poly_geom.ExponentSet.of(points, dimension)
        except ValueError as exc:
            raise ProblemError(f"{where}.exponents", str(exc)) from None
    if kind == "polynomial_log":
        _require_keys(spec, {"kind", "terms"}, where)
        return _parse_polylog(spec.get("terms"), dimension, f"{where}.terms")
    if kind == "expr":
        _require_keys(spec, {"kind", "expr"}, where)
        return _parse_expr(spec.get("expr"), dimension, f"{where}.expr")
    raise ProblemError(
        f"{where}.kind", f"unknown kind {kind!r}; expected monomial_weight, polynomial_log or expr"
    )


def _parse_polylog(terms, dimension: int, where: str) -> weights.PolyLog:
    if not isinstance(terms, list) or not terms:
        raise ProblemError(where, "expected a nonempty list of terms")
    parsed = []
    for i, term in enumerate(terms):
        w = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ProblemError(w, "term must be an object")
        _require_keys(term, {"coeff", "exponent"}, w)
        coeff = term.get("coeff")
        if not (isinstance(coeff, list) and len(coeff) == 2
                and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeff)):
            raise ProblemError(f"{w}.coeff", "expected [re, im]")
        expo = term.get("exponent")
        if not (isinstance(expo, list) and len(expo) == dimension
                and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in expo)):
            raise ProblemError(
                f"{w}.exponent", f"expected {dimension} nonnegative integers"
            )
        parsed.append((complex(coeff[0], coeff[1]), tuple(expo)))
    try:
        return weights.PolyLog(tuple(parsed))
    except ValueError as exc:
        raise ProblemError(where, str(exc)) from None


def _parse_expr(node, dimension: int, where: str):
    if not isinstance(node, dict):
        raise ProblemError(where, "expression node must be an object")
    tag = node.get("node")
    try:
        if tag == "max":
            _require_keys(node, {"node", "children"}, where)
            children = node.get("children")
            if not isinstance(children, list) or not children:
                raise ProblemError(f"{where}.children", "expected a nonempty list")
            return weights.MaxOf(
                tuple(_parse_expr(c, dimension, f"{where}.children[{i}]") for i, c in enumerate(children))
            )
        if tag == "scale":
            _require_keys(node, {"node", "factor", "child"}, where)
            factor = node.get("factor")
            wf = f"{where}.factor"
            f = _floatlike(factor, wf) if isinstance(factor, float) else _rational(factor, wf)
            return weights.Scale(f, _parse_expr(node.get("child"), dimension, f"{where}.child"))
        if tag == "neg_pow_log":
            _require_keys(node, {"node", "axis", "power"}, where)
            axis = _axis(node.get("axis"), dimension, f"{where}.axis")
            return weights.NegPowLog(axis, _rational(node.get("power"), f"{where}.power"))
        if tag == "coord_log":
            _require_keys(node, {"node", "axis"}, where)
            return weights.CoordLog(_axis(node.get("axis"), dimension, f"{where}.axis"))
        if tag == "poly_log":
            _require_keys(node, {"node", "terms"}, where)
            return _parse_polylog(node.get("terms"), dimension, f"{where}.terms")
    except ValueError as exc:
        if isinstance(exc, ProblemError):
            raise
        raise ProblemError(where, str(exc)) from None
    raise ProblemError(
        f"{where}.node",
        f"unknown node {tag!r}; expected max, scale, neg_pow_log, coord_log or poly_log",
    )


def _axis(value, dimension: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= dimension:
        raise ProblemError(where, f"axis must be an integer in 1..{dimension}")
    return value


def _require_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ProblemError(where, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def parse_problem(source, name: str | None = None) -> ProblemFile:
    """Read and validate a problem file (path, file object, or dict)."""
    if isinstance(source, dict):
        data = source
        label = name or "<inline>"
    else:
        reads = hasattr(source, "read")
        label = name or (getattr(source, "name", "<stream>") if reads else str(source))
        try:
            if reads:
                text = source.read()
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            data = json.loads(text)
        except UnicodeDecodeError as exc:
            raise ProblemError(label, f"not UTF-8 text: {exc}") from None
        except RecursionError:
            raise ProblemError(label, "JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ProblemError(label, f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ProblemError(label, "top level must be a JSON object")
    _require_keys(data, {"dimension", "objects", "tasks"}, label)
    dim = data.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ProblemError(f"{label}.dimension", "expected a positive integer")
    raw_objects = data.get("objects")
    if not isinstance(raw_objects, dict):
        raise ProblemError(f"{label}.objects", "expected an object map")
    objects = {oname: _parse_object(oname, spec, dim) for oname, spec in raw_objects.items()}
    raw_tasks = data.get("tasks")
    if not isinstance(raw_tasks, list):
        raise ProblemError(f"{label}.tasks", "expected a list")
    tasks = []
    for i, task in enumerate(raw_tasks):
        where = f"tasks[{i}]"
        if not isinstance(task, dict):
            raise ProblemError(where, "task must be an object")
        op = task.get("op")
        if not isinstance(op, str) or op not in _OPS:
            raise ProblemError(f"{where}.op", f"unknown op {op!r}")
        slots = _OPS[op].slots
        _require_keys(task, set(slots) | {"op"}, where)
        for slot, kind in slots.items():
            if kind not in _REFERENCES:
                continue
            if slot not in task:
                raise ProblemError(where, f"op {op!r} needs a {slot!r} reference")
            ref = task[slot]
            if not isinstance(ref, str) or ref not in objects:
                raise ProblemError(f"{where}.{slot}", f"undefined object {ref!r}")
            if isinstance(objects[ref], poly_geom.ExponentSet) != (kind == "exponent"):
                raise ProblemError(f"{where}.{slot}", f"object {ref!r} must be {_REFERENCES[kind]}")
        tasks.append(task)
    # a file's report names it by its base name, so report bytes do not
    # depend on where the file lives; errors above keep the path as given
    return ProblemFile(name=name or os.path.basename(str(label)), dimension=dim,
                       objects=objects, tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# execution


def _floatlike(value, where: str) -> float:
    """Accept finite JSON numbers and exact-rational forms in float slots."""
    if isinstance(value, bool):
        raise ProblemError(where, "expected a number, got a boolean")
    try:
        x = float(value if isinstance(value, (int, float)) else _rational(value, where))
    except OverflowError:  # an int or rational beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ProblemError(where, f"expected a finite number, got {json.dumps(value)}")
    return x


def _int(value, where: str) -> int:
    """Accept JSON integers and integral exact rationals ("2", [4, 2])."""
    q = None if isinstance(value, (bool, float)) else _rational(value, where)
    if q is None or q.denominator != 1:
        raise ProblemError(where, f"expected an integer, got {json.dumps(value)}")
    return int(q)


def _each(read):
    """Reader of a JSON list whose entries `read` reads."""

    def each(value, where: str) -> list:
        if not isinstance(value, list):
            raise ProblemError(where, f"expected a list, got {json.dumps(value)}")
        return [read(x, f"{where}[{i}]") for i, x in enumerate(value)]

    return each


def _schedule(spec, where: str, default: RadialSchedule) -> RadialSchedule:
    if not isinstance(spec, dict):
        raise ProblemError(where, "expected an object")
    _require_keys(spec, {"levels", "nodes", "extrapolation"}, where)
    nodes = _int(spec["nodes"], f"{where}.nodes") if "nodes" in spec else default.angular_nodes
    levels = default.levels
    if "levels" in spec:
        levels = tuple(_each(_floatlike)(spec["levels"], f"{where}.levels"))
    try:
        return RadialSchedule(levels, nodes, str(spec.get("extrapolation", default.extrapolation)))
    except (TypeError, ValueError) as exc:
        raise ProblemError(where, str(exc)) from None


# slot kind -> reader of the slot's JSON value; "schedule" also needs the
# run's default schedule and is bound in `execute`
_READERS = {
    "rationals": _each(_rational),
    "floats": _each(_floatlike),
    "float_rows": _each(_each(_floatlike)),
    "float": _floatlike,
    "int": _int,
    "ints": _each(_int),
}

# slot kinds that name an object, with what the object must be
_REFERENCES = {
    "exponent": "a monomial_weight",
    "evaluable": "pointwise evaluable (polynomial_log or expr)",
}


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _vec_strs(v) -> list[str]:
    return [_frac_str(x) for x in v]


def _value_record(vv: indicator_calculus.LelongValue, _) -> dict:
    return {"value": _frac_str(vv.value), "kind": vv.kind}


def _estimate_record(est: numeric_oracle.LimitEstimate, _) -> dict:
    return {
        "value": est.value,
        "stderr": est.stderr,
        "levels_used": list(est.levels_used),
        "per_level": [
            {k: lv[k] for k in ("r", "mean", "ratio", "clipped", "rejected")}
            for lv in est.diagnostics.get("levels", [])
        ],
        "extrapolation": est.diagnostics.get("extrapolation"),
        "angular_nodes": est.diagnostics.get("angular_nodes"),
    }


def _hull_record(hull: poly_geom.NewtonDiagramStruct, _) -> dict:
    return {
        "hull_vertices": [_vec_strs(v) for v in hull.hull_vertices],
        "bounded_faces": [
            {"vertices": [_vec_strs(v) for v in f.vertices], "normal": _vec_strs(f.normal)}
            for f in hull.bounded_faces
        ],
    }


def _gamma_record(gm: poly_geom.GammaMeasure, _) -> dict:
    return {
        "atoms": [{"vertex": _vec_strs(t0), "mass": _frac_str(mass)} for t0, mass in gm.atoms],
        "total_mass": _frac_str(gm.total_mass),
    }


def _profile_record(entries: tuple[numeric_oracle.ProfileEntry, ...], _) -> dict:
    return {"profile": [
        {
            "direction": list(e.direction),
            "value": None if e.estimate is None else e.estimate.value,
            "stderr": None if e.estimate is None else e.estimate.stderr,
            "error": e.error,
        }
        for e in entries
    ]}


def _expr_record(w) -> dict:
    if isinstance(w, weights.PolyLog):
        terms = [{"coeff": [c.real, c.imag], "exponent": list(J)} for c, J in w.terms]
        return {"node": "poly_log", "terms": terms}
    if isinstance(w, weights.CoordLog):
        return {"node": "coord_log", "axis": w.axis}
    if isinstance(w, weights.NegPowLog):
        return {"node": "neg_pow_log", "axis": w.axis, "power": _frac_str(w.power)}
    if isinstance(w, weights.MaxOf):
        return {"node": "max", "children": [_expr_record(c) for c in w.children]}
    if isinstance(w, weights.Scale):
        factor = _frac_str(w.factor) if isinstance(w.factor, Fraction) else w.factor
        return {"node": "scale", "factor": factor, "child": _expr_record(w.child)}
    raise TypeError(type(w).__name__)


def _sandwich_record(rep: demailly.SandwichReport, _) -> dict:
    return {
        "c1_by_m": {str(m): v for m, v in rep.c1_by_m.items()},
        "c2_by_m": {str(m): v for m, v in rep.c2_by_m.items()},
    }


def _bounds_record(rep: demailly.LelongBoundsReport, args: dict) -> dict:
    keep = ("estimate", "stderr", "lower_ok", "upper_ok", "admissible")
    return {
        "exact": _frac_str(rep.exact),
        "tau_sum": _frac_str(rep.tau_sum),
        "estimates_by_m": {
            str(m): {k: rec[k] for k in keep} for m, rec in rep.estimates_by_m.items()
        },
        "tolerance": args["tolerance"],
    }


@dataclass(frozen=True)
class _Op:
    """An op: the function of its name in `module`, called on its slots in order.

    The function is looked up per task, so a wrapper set on the module
    attribute (as by `bench/tracer.py`) sees the call.  A `_REFERENCES`
    slot names an object; any other slot is read by its kind's reader.
    `record` maps the result and the slot values to the task's result; a
    result with a `passed` flag gives the status pass or fail, others ok.
    """

    module: Any
    slots: dict[str, str]
    record: Callable[[Any, dict], dict]
    takes_dim: bool = False


_PHI, _W, _SCHED = {"phi": "exponent"}, {"w": "evaluable"}, {"schedule": "schedule"}

# the one list of ops: parsing, execution and the README's op table follow it
_OPS: dict[str, _Op] = {
    "dominated_hull": _Op(poly_geom, _PHI, _hull_record),
    "sublevel_vertices": _Op(
        poly_geom, _PHI, lambda sub, _: {"extreme_points": [_vec_strs(v) for v in sub.extreme_points]}
    ),
    "gamma_measure": _Op(poly_geom, _PHI, _gamma_record),
    "newton_number": _Op(indicator_calculus, _PHI, _value_record),
    "dual_face": _Op(poly_geom, {**_PHI, "t0": "rationals"},
                     lambda face, _: {"face_vertices": [_vec_strs(v) for v in face]}),
    "directional_lelong_exact": _Op(indicator_calculus, {"u": "exponent", "a": "rationals"},
                                    _value_record),
    "generalized_lelong_exact": _Op(indicator_calculus, {"u": "exponent", **_PHI}, _value_record),
    "tau": _Op(indicator_calculus, {**_PHI, "k": "int"}, _value_record),
    "directional_lelong_numeric": _Op(numeric_oracle, {**_W, "a": "floats", **_SCHED},
                                      _estimate_record, takes_dim=True),
    "classical_lelong_numeric": _Op(numeric_oracle, {**_W, **_SCHED}, _estimate_record,
                                    takes_dim=True),
    "generalized_lelong_numeric": _Op(numeric_oracle, {**_PHI, **_W, **_SCHED}, _estimate_record),
    "swept_measure_apply": _Op(numeric_oracle, {**_PHI, **_W, "r": "float", "nodes": "int"},
                               lambda v, args: {"value": v, "r": args["r"], "nodes": args["nodes"]}),
    "slice_lelong": _Op(numeric_oracle, {**_W, "k": "int", **_SCHED}, _estimate_record,
                        takes_dim=True),
    "indicator_profile": _Op(numeric_oracle, {**_W, "directions": "float_rows", **_SCHED},
                             _profile_record, takes_dim=True),
    "scaling_transform": _Op(weights, {**_W, "m": "int"},
                             lambda out, _: {"expr": _expr_record(out)}),
    "sandwich_check": _Op(demailly, {"u": "evaluable", "m_list": "ints", "degree_cap": "int"},
                          _sandwich_record, takes_dim=True),
    "lelong_bounds_check": _Op(
        demailly, {"u": "evaluable", **_PHI, "m_list": "ints", "degree_cap": "int", **_SCHED,
                   "tolerance": "float"},
        _bounds_record, takes_dim=True,
    ),
}


def _run_task(task: dict, p: ProblemFile, defaults: dict, readers: dict,
              where: str) -> tuple[str, dict]:
    op = _OPS[task["op"]]
    args = {}
    for slot, kind in op.slots.items():
        if kind in _REFERENCES:
            args[slot] = p.objects[task[slot]]
        elif task.get(slot) is None and slot in defaults:
            args[slot] = defaults[slot]
        else:
            args[slot] = readers[kind](task[slot], f"{where}.{slot}")
    fn = getattr(op.module, task["op"])
    out = fn(*args.values(), **({"dim": p.dimension} if op.takes_dim else {}))
    status = "ok" if not hasattr(out, "passed") else "pass" if out.passed else "fail"
    return status, op.record(out, args)


def execute(p: ProblemFile, default_sched: RadialSchedule = numeric_oracle.DEFAULT_SCHEDULE,
            default_tol: float = 0.02) -> Report:
    """Run all tasks in file order; task failures are isolated per task."""
    report = Report(
        problem=p.name,
        dimension=p.dimension,
        config={
            "schedule": {
                "levels": list(default_sched.levels),
                "nodes": default_sched.angular_nodes,
                "extrapolation": default_sched.extrapolation,
            },
            "tolerance": default_tol,
            "clip_floor": numeric_oracle.CLIP_FLOOR,
        },
    )
    # an optional slot that is absent or null takes the run's default
    defaults = {"schedule": default_sched, "nodes": default_sched.angular_nodes,
                "tolerance": default_tol, "degree_cap": None}
    readers = {**_READERS, "schedule": lambda spec, w: _schedule(spec, w, default_sched)}
    for i, task in enumerate(p.tasks):
        where = f"tasks[{i}]"
        record = {"index": i, "op": task["op"], "inputs": _echo(task)}
        try:
            status, result = _run_task(task, p, defaults, readers, where)
            record["status"] = status
            record["result"] = result
        except Exception as exc:  # isolate per task
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        report.tasks.append(record)
    return report


def _echo(task: dict) -> dict:
    return json.loads(json.dumps(task, sort_keys=True))


# ---------------------------------------------------------------------------
# emission


def _round_floats(x):
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            return repr(x)
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_floats(v) for v in x]
    return x


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(x, pad: str, out: list[str]) -> list[str]:
    """Append to `out` the text of json.dumps(_round_floats(x), sort_keys=True, indent=2).

    One pass, with floats rounded by `_round_floats`; `pad` is the
    newline and indentation of the line x is on.  Strings go through
    the json module's C encoder, so the text is ASCII, as with
    ensure_ascii.  Keys must be strings, as in every report.
    """
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, dict):
        inner = sep = pad + "  "
        out.append("{")
        for k in sorted(x):
            out += (sep, _quote(k), ": ")
            _json(x[k], inner, out)
            sep = "," + inner
        out.append(pad + "}" if x else "}")
    elif isinstance(x, (list, tuple)):
        inner = sep = pad + "  "
        out.append("[")
        for v in x:
            out.append(sep)
            _json(v, inner, out)
            sep = "," + inner
        out.append(pad + "]" if x else "]")
    elif isinstance(x, float):
        x = _round_floats(x)
        out.append(float.__repr__(x) if isinstance(x, float) else _quote(x))
    elif x is None or x is True or x is False:
        out.append(_CONSTANTS[x])
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return out


def _report_tree(report: Report) -> dict:
    return {
        "problem": report.problem,
        "dimension": report.dimension,
        "config": report.config,
        "tasks": report.tasks,
        "summary": {
            "total": len(report.tasks),
            "errors": sum(t["status"] == "error" for t in report.tasks),
            "failed_checks": sum(t["status"] == "fail" for t in report.tasks),
        },
    }


def emit(report: Report, fmt: str) -> bytes:
    """Deterministic serialization; rationals exact, floats at 12 digits."""
    if fmt == "json":
        return ("".join(_json(_report_tree(report), "\n", [])) + "\n").encode("utf-8")
    if fmt == "text":
        return _emit_text(report).encode("utf-8")
    if fmt == "csv":
        return _emit_csv(report).encode("utf-8")
    raise ValueError(f"unsupported format {fmt!r}; expected text, json or csv")


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Append to `rows` a (path, JSON text) row for each leaf of value."""
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else k, value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "".join(_json(value, "", []))))
    return rows


def _task_rows(task: dict, prefix: str, rows: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Append to `rows` the rows of a task's result under `prefix`, then its error row."""
    _flatten(prefix, task.get("result", {}), rows)
    return _flatten("error", task["error"], rows) if "error" in task else rows


def _emit_text(report: Report) -> str:
    out = io.StringIO()
    out.write(f"problem: {report.problem}   dimension: {report.dimension}\n")
    for task in report.tasks:
        out.write(f"\n[{task['index']}] {task['op']}  ->  {task['status'].upper()}\n")
        rows = _task_rows(task, "result", _flatten("inputs", task["inputs"], []))
        width = max((len(k) for k, _ in rows), default=0)
        for k, v in rows:
            out.write(f"  {k.ljust(width)}  {v}\n")
    s = _report_tree(report)["summary"]
    out.write(
        f"\nsummary: {s['total']} tasks, {s['errors']} errors, {s['failed_checks']} failed checks\n"
    )
    return out.getvalue()


def _emit_csv(report: Report) -> str:
    out = io.StringIO()
    for task in report.tasks:
        out.write(f"# task {task['index']}: {task['op']} ({task['status']})\n")
        result = task.get("result", {})
        if task["op"] == "gamma_measure" and "atoms" in result:
            out.write("".join(f"vertex_{k + 1}," for k in range(report.dimension)) + "mass_num,mass_den\n")
            for atom in result["atoms"]:
                mass = Fraction(atom["mass"])
                out.write(",".join(atom["vertex"]) + f",{mass.numerator},{mass.denominator}\n")
            out.write(f"total_mass,{result['total_mass']}\n")
        else:
            out.write("field,value\n")
            for k, v in _task_rows(task, "", []):
                out.write(f"{k},{v}\n")
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# built-in golden suite


def _golden_problems() -> list[tuple[dict, list[dict]]]:
    """(problem, expectations) pairs; expectations name a task index and check."""
    exact_problem = {
        "dimension": 2,
        "objects": {
            "diag_mono": {"kind": "monomial_weight", "exponents": [[1, 1]]},
            "diag_tri": {"kind": "monomial_weight", "exponents": [[4, 0], [1, 1], [0, 4]]},
            "diag_cusp": {"kind": "monomial_weight", "exponents": [[2, 0], [0, 3]]},
            "diag_axes": {"kind": "monomial_weight", "exponents": [[1, 0], [0, 1]]},
        },
        "tasks": [
            {"op": "newton_number", "phi": "diag_cusp"},
            {"op": "newton_number", "phi": "diag_axes"},
            {"op": "newton_number", "phi": "diag_tri"},
            {"op": "gamma_measure", "phi": "diag_tri"},
            {"op": "generalized_lelong_exact", "u": "diag_mono", "phi": "diag_tri"},
            {"op": "tau", "phi": "diag_cusp", "k": 1},
            {"op": "tau", "phi": "diag_cusp", "k": 2},
            {"op": "directional_lelong_exact", "u": "diag_cusp", "a": [1, 1]},
            {"op": "dual_face", "phi": "diag_tri", "t0": ["-1/4", "-3/4"]},
        ],
    }
    exact_expect = [
        {"task": 0, "path": ("result", "value"), "equals": "6"},
        {"task": 1, "path": ("result", "value"), "equals": "1"},
        {"task": 2, "path": ("result", "value"), "equals": "8"},
        {"task": 3, "path": ("result", "total_mass"), "equals": "4"},
        {"task": 4, "path": ("result", "value"), "equals": "8"},
        {"task": 5, "path": ("result", "value"), "equals": "3"},
        {"task": 6, "path": ("result", "value"), "equals": "2"},
        {"task": 7, "path": ("result", "value"), "equals": "2"},
        {"task": 8, "path": ("result", "face_vertices"), "equals": [["1", "1"], ["4", "0"]]},
    ]
    numeric_problem = {
        "dimension": 2,
        "objects": {
            "cusp_poly": {
                "kind": "polynomial_log",
                "terms": [
                    {"coeff": [1, 0], "exponent": [2, 0]},
                    {"coeff": [1, 0], "exponent": [0, 3]},
                ],
            },
            "axes_weight": {"kind": "monomial_weight", "exponents": [[1, 0], [0, 1]]},
            "flat_weight": {
                "kind": "expr",
                "expr": {
                    "node": "max",
                    "children": [
                        {"node": "neg_pow_log", "axis": 1, "power": "1/2"},
                        {"node": "coord_log", "axis": 2},
                    ],
                },
            },
        },
        "tasks": [
            {"op": "directional_lelong_numeric", "w": "cusp_poly", "a": [1, 1]},
            {"op": "generalized_lelong_numeric", "phi": "axes_weight", "w": "cusp_poly"},
            {"op": "slice_lelong", "w": "flat_weight", "k": 1},
            {"op": "swept_measure_apply", "phi": "axes_weight", "w": "cusp_poly", "r": -5, "nodes": 256},
        ],
    }
    numeric_expect = [
        {"task": 0, "path": ("result", "value"), "close_to": 2.0, "rel_tol": 0.02},
        {"task": 1, "path": ("result", "value"), "close_to": 2.0, "rel_tol": 0.02},
        {"task": 2, "path": ("result", "value"), "close_to": 1.0, "rel_tol": 0.01},
        {"task": 3, "path": ("result", "value"), "close_to": -10.0, "rel_tol": 0.01},
    ]
    return [(exact_problem, exact_expect), (numeric_problem, numeric_expect)]


def run_selftest() -> tuple[dict, int]:
    """Execute the embedded golden problems and check the frozen expectations."""
    sections = []
    worst = 0
    for idx, (problem, expectations) in enumerate(_golden_problems()):
        p = parse_problem(problem, name=f"selftest[{idx}]")
        report = execute(p)
        data = _round_floats(_report_tree(report))
        checks = []
        for exp in expectations:
            task = data["tasks"][exp["task"]]
            value: Any = task
            try:
                for key in exp["path"]:
                    value = value[key]
            except (KeyError, TypeError):
                value = None
            if "equals" in exp:
                ok = value == exp["equals"]
                checks.append(
                    {"task": exp["task"], "expect": exp["equals"], "got": value, "pass": ok}
                )
            else:
                target = exp["close_to"]
                ok = (
                    isinstance(value, (int, float))
                    and abs(value - target) <= exp["rel_tol"] * abs(target)
                )
                checks.append(
                    {"task": exp["task"], "expect": target, "got": value,
                     "rel_tol": exp["rel_tol"], "pass": ok}
                )
            if not checks[-1]["pass"]:
                worst = max(worst, 2)
        if report.any_error:
            worst = max(worst, 1)
        sections.append({"problem": data, "checks": checks})
    return {"selftest": sections, "exit_code": worst}, worst


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is an input error: one line and exit code 1."""
        self.exit(1, f"error: {message}\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="lelong",
        description="Exact and numerical Lelong-number calculus for monomial-type weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a JSON problem file")
    run_p.add_argument("file", help="problem file path")
    run_p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    run_p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    # the four numbers are read below like the slots they default
    run_p.add_argument("--rmin", default=-30.0, help="deepest schedule level")
    run_p.add_argument("--levels", default=4, help="number of schedule levels")
    run_p.add_argument("--nodes", default=256, help="angular quadrature nodes")
    run_p.add_argument("--tol", default=0.02, help="default check tolerance")

    sub.add_parser("selftest", help="run the built-in golden suite (JSON on stdout)")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        payload, code = run_selftest()
        sys.stdout.write("".join(_json(payload, "\n", [])) + "\n")
        return code

    try:
        sched = RadialSchedule.geometric(_floatlike(args.rmin, "--rmin"), _int(args.levels, "--levels"),
                                         _int(args.nodes, "--nodes"))
        tol = _floatlike(args.tol, "--tol")
        problem = parse_problem(args.file)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report = execute(problem, default_sched=sched, default_tol=tol)
    blob = emit(report, args.format)
    if not args.out:
        sys.stdout.buffer.write(blob)
        return report.exit_code()
    try:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        sys.stderr.write(f"error: --out: {exc}\n")
        return 1
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
