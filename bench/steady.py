"""Steadiness check: two sets of benchmark runs of the same code, apart in time.

    python3 bench/steady.py [--runs 10] [--sets 2] [--workloads W ...] [--seconds S]
    python3 bench/steady.py --runs 1 --sets 1     # every workload once

Each set runs every workload --runs times, each run with a new seed
(set k uses seeds k*runs+1 ... (k+1)*runs), cycling through the workloads
so that each one's runs spread over the set's span.  For every end-to-end
metric it prints each set's median and quartiles, the spread
(Q3 - Q1) / median and the shift between the set medians, beside the
metric's bound from BENCHMARK.json.  A spread above the bound (setup_s
excepted) or a shift worse than the bound is flagged.  Raw results go to
bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = k * args.runs + i + 1
            for w in args.workloads:
                t = time.monotonic()
                out = run_once(w, seed, args.seconds)
                results[w][k].append(out)
                sys.stderr.write(f"set {k + 1} {w} seed {seed}: {time.monotonic() - t:.0f}s "
                                 f"failed {out['failed']}/{out['attempted']} correct {out['correct']}\n")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{int(time.time())}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "results": results}, fh)

    print(f"{'workload':<18} {'metric [unit]':<20} {'bound':>6}  "
          + "  ".join(f"{'set ' + str(k + 1) + ' median [Q1, Q3] spread':<44}" for k in range(args.sets))
          + ("  shift" if args.sets == 2 else ""))
    ok = True
    for w in args.workloads:
        counts = [(sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)) for runs in results[w]]
        print(f"{w:<18} tasks attempted/failed per set: "
              + ", ".join(f"{a}/{f}" for a, f in counts))
        if len({round(f / a, 12) for a, f in counts}) > 1 or not all(
                r["correct"] for runs in results[w] for r in runs):
            print(f"{w}: the failed shares differ between sets, or a run was not correct")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, meds = [], []
            for runs in results[w]:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                flag = "!" if spread > bound and name != "setup_s" else " "
                ok &= flag == " "
                cells.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:5.1f}%{flag}")
                meds.append(med)
            label = f"{name} [{m['unit']}]"
            line = f"{w:<18} {label:<20} {100 * bound:5.0f}%  " + "  ".join(f"{c:<44}" for c in cells)
            if args.sets == 2:
                shift = (meds[1] - meds[0]) / meds[0]
                worse = shift if m["better"] == "lower" else -shift
                flag = "!" if worse > bound else " "
                ok &= flag == " "
                line += f"  {100 * shift:+5.1f}%{flag}"
            print(line)
    print("steady" if ok else "NOT steady (! marks a spread above the bound or a shift worse than it)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
