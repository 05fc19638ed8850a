"""One workload in one process: import, parse, then timed rounds over the corpus.

    child.py setup DIR                 time `import lelong` + parsing DIR's files
    child.py run DIR --seconds S [--trace-out FILE]

Every round runs each problem file through cli.execute and cli.emit, the
path of `lelong run`, and checks every report.  The last line of stdout
is a JSON object with the measurements.  Only the standard library is
imported before `lelong`, so the import time is the library's own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import verify
from tracer import LAYERS, Tracer, round_metrics

# the defaults of `lelong run` (--rmin -30 --levels 4 --nodes 256 --tol 0.02)
RUN_RMIN, RUN_LEVELS, RUN_NODES, RUN_TOL = -30.0, 4, 256, 0.02


def load(problem_dir: str):
    """Import lelong and parse every problem file; returns (cli, entries, problems)."""
    from lelong import cli

    with open(os.path.join(problem_dir, "manifest.json"), encoding="utf-8") as fh:
        entries = json.load(fh)
    problems = [cli.parse_problem(os.path.join(problem_dir, e["file"])) for e in entries]
    return cli, entries, problems


def check_source(src: str):
    import lelong

    where = os.path.realpath(lelong.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"lelong imported from {where}, not from {src}")


def main_setup(args) -> int:
    t0 = time.perf_counter()
    load(args.dir)
    elapsed = time.perf_counter() - t0
    check_source(args.src)
    print(json.dumps({"setup_s": elapsed}))
    return 0


class Checker:
    """Verifies reports; a report equal to an already verified one shares its verdict."""

    def __init__(self, entries):
        self.entries = entries
        self.reference: list[bytes | None] = [None] * len(entries)
        self.verdicts: list[str | None] = [None] * len(entries)
        self.values: dict = {}
        self.problems: list[str] = []

    def round(self, blobs: list[bytes]) -> int:
        """Check one round; returns the number of failed tasks."""
        failed = 0
        for i, blob in enumerate(blobs):
            if self.reference[i] is None:
                self.reference[i] = blob
                self.verdicts[i] = verify.check(self.entries[i], json.loads(blob), self.values)
                if self.verdicts[i]:
                    sys.stderr.write(f"FAILED {self.entries[i]['file']}: {self.verdicts[i]}\n")
            elif blob != self.reference[i]:
                self.problems.append(f"{self.entries[i]['file']}: report differs from the first pass")
            failed += self.verdicts[i] is not None
        return failed

    @property
    def wrong_values(self) -> bool:
        """A task that ran but produced a wrong value (not an error status)."""
        return any(v and not v.startswith("status error") for v in self.verdicts)


def main_run(args) -> int:
    t0 = time.perf_counter()
    cli, entries, problems = load(args.dir)
    setup = time.perf_counter() - t0
    check_source(args.src)
    from lelong.numeric_oracle import RadialSchedule

    sched = RadialSchedule.geometric(RUN_RMIN, RUN_LEVELS, RUN_NODES)
    files = [os.path.join(args.dir, e["file"]) for e in entries]

    tracer = None

    def one_pass(probs):
        blobs, times = [], []
        start = time.perf_counter()
        for i, p in enumerate(probs):
            if tracer:
                tracer.task = i
            t = time.perf_counter()
            blob = cli.emit(cli.execute(p, default_sched=sched, default_tol=RUN_TOL), "json")
            times.append(time.perf_counter() - t)
            blobs.append(blob)
        return blobs, times, time.perf_counter() - start

    checker = Checker(entries)
    if args.trace_out:
        # untraced reference pass: traced reports must equal these byte for byte
        ref, _, _ = one_pass(problems)
        checker.round(ref)
        tracer = Tracer()
        tracer.install()

    walls, task_times, failed, rounds = [], [], 0, 0
    start = time.perf_counter()
    while True:
        probs = problems
        if tracer:
            tracer.round, tracer.task = rounds, -1
            probs = [cli.parse_problem(f) for f in files]
        blobs, times, wall = one_pass(probs)
        walls.append(wall)
        task_times.extend(times)
        failed += checker.round(blobs)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "attempted": rounds * len(entries),
        "failed": failed,
        "correct": not checker.problems and not checker.wrong_values,
        "problems": checker.problems,
        "rounds": rounds,
        "tasks_per_round": len(entries),
        "metrics": {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "task_p50_ms": statistics.median(task_times) * 1e3,
            "peak_rss_mib": peak_rss_mib,
        },
        "round_walls_s": walls,
        "task_ms_by_round": [[round(t * 1e3, 4) for t in task_times[r * len(entries):(r + 1) * len(entries)]]
                             for r in range(rounds)],
    }
    if tracer:
        out["metrics"].update(traced_metrics(tracer, one_pass, problems, rounds))
        out["missing_spans"] = tracer.missing
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


def traced_metrics(tracer: Tracer, one_pass, problems, rounds: int) -> dict:
    by_round: list[list] = [[] for _ in range(rounds)]
    for s in tracer.spans:
        by_round[s.round].append(s)
    per_round = [round_metrics(spans) for spans in by_round]
    keys = sorted({k for r in per_round for k in r})
    metrics = {k: statistics.median(r.get(k, 0) for r in per_round) for k in keys}

    # one more pass, unrecorded, over the tasks that call numeric_oracle, for
    # the allocation peak of each call.  Sphere means are left out: tracing the
    # 4M floats of their tolist() takes about a minute per task.
    import tracemalloc

    numeric = {s.task for s in tracer.spans if s.name.startswith("numeric_oracle.")}
    numeric -= {s.task for s in tracer.spans if s.name == "numeric_oracle.sphere_mean"}
    numeric = sorted(numeric)
    tracer.recording = False
    tracer.alloc_peaks = []
    tracemalloc.start()
    try:
        one_pass([problems[i] for i in numeric])
    finally:
        tracemalloc.stop()
    metrics["numeric_oracle.peak_alloc_mib"] = max(tracer.alloc_peaks, default=0) / 2**20

    for layer in LAYERS:
        mod = sys.modules.get(f"lelong.{layer}")
        path = getattr(mod, "__file__", None)
        if path:
            with open(path, encoding="utf-8") as fh:
                metrics[f"{layer}.src_lines"] = sum(1 for _ in fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("dir", help="directory with manifest.json and the problem files")
    parser.add_argument("--src", required=True, help="the src/ directory lelong must come from")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out", default=None, help="write spans here and report per-layer metrics")
    args = parser.parse_args(argv)
    return main_setup(args) if args.mode == "setup" else main_run(args)


if __name__ == "__main__":
    sys.exit(main())
