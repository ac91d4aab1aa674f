#!/usr/bin/env python3
"""Steadiness check: run the benchmark repeatedly and report each
end-to-end metric's median, quartiles and spread.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b,...]

Each run uses its own seed (first-seed, first-seed + 1, ...). The
spread is (Q3 - Q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4), and is compared against the
metric's bound in BENCHMARK.json: "ok" below a third of the bound,
"wide" up to the bound, "OVER" beyond it. Prints one markdown table per
workload; the raw results go to .perfbench/steady-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    os.makedirs(".perfbench", exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.monotonic()
            p = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - t0
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                sys.exit("%s seed %d: exit %d, no result" % (workload, seed, p.returncode))
            r = json.loads(last)
            r["seed"], r["wall_s"] = seed, wall
            results.append(r)
            print("%s seed %d: %.1f s, correct %s" % (workload, seed, wall, r["correct"]),
                  file=sys.stderr)
        with open(os.path.join(".perfbench", "steady-%s.json" % workload), "w") as f:
            json.dump(results, f, indent=1)
        print("\n%s, %d runs, seeds %d-%d, all correct: %s, run wall %.1f-%.1f s\n"
              % (workload, len(results), args.first_seed, args.first_seed + args.runs - 1,
                 all(r["correct"] for r in results),
                 min(r["wall_s"] for r in results), max(r["wall_s"] for r in results)))
        print("| metric | unit | median | Q1 | Q3 | spread | bound | |")
        print("|---|---|---|---|---|---|---|---|")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            verdict = "ok" if spread < bound / 3 else "wide" if spread <= bound else "OVER"
            print("| %s | %s | %.6g | %.6g | %.6g | %.3f | %s | %s |"
                  % (m["name"], m["unit"], med, q1, q3, spread, bound, verdict))


if __name__ == "__main__":
    main()
