"""Summarizes two sets of benchmark runs of the same code.

Usage: python3 perfbench/steadiness.py perfbench/results/steadiness.jsonl

Each input line is one run: {"set": 1 or 2, "workload", "seed", "correct",
"attempted", "failed", "host_slowdown", "metrics": {name: value},
"measured_at_host_speed": {name: value}}. For every workload and end-to-end
metric of BENCHMARK.json it prints each set's median and quartile spread
(the distance between the first and third quartile of
statistics.quantiles(v, n=4), as a share of the median), the ratio of the
medians, and the spread of the time metrics as measured, before scaling to
the reference speed.
"""

import json
import os
import statistics
import sys


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(path):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    runs = [json.loads(line) for line in open(path)]
    for w in [x["name"] for x in spec["workloads"]]:
        sets = [[r for r in runs if r["workload"] == w and r["set"] == s] for s in (1, 2)]
        if not all(sets):
            continue
        bad = sum(1 for r in sets[0] + sets[1] if not r["correct"] or r["failed"])
        print(f"\n`{w}`: {len(sets[0])} + {len(sets[1])} runs, {bad} incorrect\n")
        print("| metric | set 1 median | spread | set 2 median | spread "
              "| set 2 / set 1 | spread as measured | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            n = m["name"]
            vals = [[r["metrics"][n] for r in s] for s in sets]
            meds = [statistics.median(v) for v in vals]
            raw = "—"
            if n in sets[0][0]["measured_at_host_speed"]:
                raw = " / ".join(
                    f"{spread([r['measured_at_host_speed'][n] for r in s]) * 100:.1f}%"
                    for s in sets)
            print(f"| `{n}` | {meds[0]:.4g} | {spread(vals[0]) * 100:.1f}% | {meds[1]:.4g} "
                  f"| {spread(vals[1]) * 100:.1f}% | {meds[1] / meds[0]:.3f} | {raw} "
                  f"| {m['bound']} |")


if __name__ == "__main__":
    main(sys.argv[1])
