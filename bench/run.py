"""Benchmark of the lelong library: one workload per call, one JSON line out.

    python3 bench/run.py --workload torus-quadrature --seed 1 --seconds 36 --trace 0

Generates the workload's problem files from the seed, times `import
lelong` + parsing in SETUP_PROBES fresh processes (setup_s is their
median; some run before the workload and some after it), and runs the
corpus in rounds for --seconds in one child process with numpy's thread
pools pinned to one thread.  Every report is checked against the
oracles in bench/oracles.py.  The last stdout line
is {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Full results and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import oracles  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole call, set-up probes and child included
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(msg: str, code: int = 1):
    sys.stderr.write(f"bench: {msg}\n")
    raise SystemExit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in PINNED:
        env[var] = "1"
    return env


def write_corpus(workload: str, seed: int) -> str:
    entries = corpus.GENERATORS[workload](seed).entries
    target = os.path.join(OUT, f"{workload}-s{seed}")
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    manifest = []
    for e in entries:
        name = f"{e['id']}.json"
        with open(os.path.join(target, name), "w", encoding="utf-8") as fh:
            json.dump(e["problem"], fh, indent=1)
        manifest.append({"id": e["id"], "file": name, "check": e["check"]})
    with open(os.path.join(target, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return target


def run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the child could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args, "--src", SRC],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        fail("child process timed out")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"child process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lelong benchmark, one workload per call")
    parser.add_argument("--workload", required=True, choices=tuple(corpus.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "lelong", "__init__.py")):
        fail(f"no lelong sources under {SRC}", 2)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"missing {spec_path}", 2)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = oracles.selfcheck()
    if bad:
        fail("oracle selfcheck failed: " + "; ".join(bad), 3)

    problem_dir = write_corpus(args.workload, args.seed)

    def setup_probes(count):
        return [run_child(["setup", problem_dir], deadline)["setup_s"] for _ in range(count)]

    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    run_args = ["run", problem_dir, "--seconds", str(args.seconds)]
    if args.trace:
        run_args += ["--trace-out", os.path.join(OUT, f"spans-{tag}.jsonl")]
    # probes before and after the workload, so that setup_s and the timed
    # rounds see the same stretch of machine load
    setups = setup_probes(SETUP_PROBES // 2 + 1)
    result = run_child(run_args, deadline)
    setups += setup_probes(SETUP_PROBES // 2)
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    if args.trace:
        # a layer the workload never enters has no spans: its counts and times are 0
        wanted = spec["per_layer"]
        for m in wanted:
            result["metrics"].setdefault(m["name"], 0)
    else:
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
        if missing:
            fail(f"metrics not measured: {missing}")
    for problem in result["problems"]:
        sys.stderr.write(f"bench: {problem}\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
