#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/test_determinism.py [--seed N] [--workload NAME ...]

Runs every workload's traced run twice with one seed and asserts that both
runs agree on the row digests, on the exact counts (automata.mappings,
engine.rows, engine.fleet_survivor_ratio, storage.candidate_ratio,
storage.postings_touched) and, for the served workload, on the plan-cache
hit and eviction counts of the single-connection register-pool replay.
Exits 0 when every check holds. Run it from the root of a source checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = json.load(open(os.path.join(HERE, "config.json")))


def traced_run(workload, seed, path):
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "1",
                    "--details", path], check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    ap.add_argument("--workload", action="append", choices=sorted(CONFIG["workloads"]))
    args = ap.parse_args()
    out_dir = os.path.join(os.path.dirname(HERE), ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    failures = 0
    for workload in args.workload or sorted(CONFIG["workloads"]):
        runs = [traced_run(workload, args.seed,
                           os.path.join(out_dir, "determinism-%s-%d.json" % (workload, i)))
                for i in range(2)]
        checks = {"correct": [r["result"]["correct"] for r in runs],
                  "row_digests": [r["row_digests"] for r in runs]}
        for name in runs[0]["exact_counts"]:
            checks[name] = [r["exact_counts"][name] for r in runs]
        if "pool_replay" in runs[0]:
            checks["pool_replay"] = [r["pool_replay"] for r in runs]
        for name, (a, b) in checks.items():
            ok = a == b and (name != "correct" or a)
            failures += not ok
            print("%-8s %-14s %-28s %s" % ("ok" if ok else "FAIL", workload, name,
                                           a if ok else "%s != %s" % (a, b)))
    print("determinism: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
