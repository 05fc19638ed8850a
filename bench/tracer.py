"""Spans around the public functions of each `lelong` module.

The wrappers are installed from outside the library: every module
attribute that refers to a wrapped function is replaced, so calls through
`from .x import f` names are seen too.  A span holds its name, parent,
start and end; spans stay in memory until `dump`.  Only timing is added:
arguments and results pass through untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# module -> functions wrapped; each is a layer boundary of ROADMAP aim 1
TARGETS = {
    "cli": ("parse_problem", "execute", "emit"),
    "indicator_calculus": ("newton_number", "generalized_lelong_exact", "tau",
                           "directional_lelong_exact"),
    "poly_geom": ("sublevel_vertices", "dominated_hull", "gamma_measure", "dual_face",
                  "cone_volume"),
    "exactgeom": ("enumerate_vertices", "fm_feasible", "polytope_volume"),
    "weights": ("torus_values", "indicator_support"),
    "numeric_oracle": ("torus_mean", "sphere_mean", "directional_lelong_numeric",
                       "classical_lelong_numeric", "swept_measure_apply",
                       "generalized_lelong_numeric", "slice_lelong"),
    "demailly": ("basis_norms", "sandwich_check", "lelong_bounds_check", "um_eval"),
}
LAYERS = tuple(TARGETS)


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "round", "task", "outer", "info")

    def __init__(self, sid, name, parent, start, rnd, task, outer):
        self.sid, self.name, self.parent, self.start = sid, name, parent, start
        self.end = start
        self.round, self.task = rnd, task
        self.outer = outer  # no enclosing span of the same name
        self.info = None

    def record(self) -> dict:
        out = {"id": self.sid, "name": self.name, "parent": self.parent,
               "start": self.start, "end": self.end, "round": self.round, "task": self.task}
        if self.info:
            out["info"] = self.info
        return out


def _result_info(name: str, result):
    """Counts read from a call's result at the layer boundary."""
    if name == "cli.emit":
        return {"bytes": len(result)}
    if name == "weights.torus_values":
        return {"points": int(getattr(result, "size", 1))}
    if name == "poly_geom.gamma_measure":
        return {"atoms": len(result.atoms)}
    if name == "demailly.basis_norms":
        return {"candidates": (result.degree_cap + 1) ** result.dimension,
                "admissible": len(result.entries)}
    diag = getattr(result, "diagnostics", None)
    if name.startswith("numeric_oracle.") and isinstance(diag, dict) and "levels" in diag:
        levels = diag["levels"]
        return {"levels": len(levels),
                "rejected_levels": sum(1 for lv in levels if lv["rejected"]),
                "clipped_nodes": sum(int(lv["clipped"]) for lv in levels)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active: dict[str, int] = {}
        self.round = -1
        self.task = -1  # index of the problem file being run
        self.recording = True
        self.alloc_peaks: list[int] | None = None  # set to a list to measure numeric_oracle calls
        self.missing: list[str] = []

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else -1
        depth = self.active.get(name, 0)
        s = Span(len(self.spans), name, parent, time.perf_counter(), self.round, self.task, depth == 0)
        self.active[name] = depth + 1
        if self.recording:
            self.spans.append(s)
        self.stack.append(s)
        return s

    def _close(self, s: Span):
        s.end = time.perf_counter()
        self.stack.pop()
        self.active[s.name] -= 1

    def wrap(self, name: str, fn):
        tracer = self
        numeric = name.startswith("numeric_oracle.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            measure = numeric and tracer.alloc_peaks is not None and not any(
                s.name.startswith("numeric_oracle.") for s in tracer.stack)
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            s = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if measure:
                tracer.alloc_peaks.append(tracemalloc.get_traced_memory()[1] - base)
            s.info = _result_info(name, result)
            return result

        return wrapper

    def install(self):
        """Wrap every TARGETS function and ApproxBasis.torus_values in all lelong modules."""
        mods = [m for k, m in sorted(sys.modules.items()) if k == "lelong" or k.startswith("lelong.")]
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"lelong.{layer}")
            for fname in names:
                orig = getattr(module, fname, None) if module else None
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
        demailly = sys.modules.get("lelong.demailly")
        basis = getattr(demailly, "ApproxBasis", None)
        if basis is not None and hasattr(basis, "torus_values"):
            basis.torus_values = self.wrap("demailly.approx_eval", basis.torus_values)
        else:
            self.missing.append("demailly.ApproxBasis.torus_values")

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.record()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part covered by its child spans."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round's spans (times in ms)."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        dur = (s.end - s.start) * 1e3
        if s.outer:
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.ms", dur)
        layer = s.name.split(".", 1)[0]
        if layer in LAYERS:
            add(f"{layer}.self_ms", own[s.sid] * 1e3)
        if s.name == "cli.execute":
            add("cli.execute.self_ms", own[s.sid] * 1e3)
        if s.info:
            for key, value in s.info.items():
                if key == "points" and not s.outer:
                    continue
                target = {"atoms": "poly_geom.atoms", "candidates": "demailly.candidates",
                          "admissible": "demailly.admissible", "bytes": "cli.emit.bytes",
                          "points": "weights.torus_values.points"}.get(key, f"numeric_oracle.{key}")
                add(target, value)
    return out
