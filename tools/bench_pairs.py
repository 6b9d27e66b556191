#!/usr/bin/env python3
"""Paired end-to-end benchmark of a change against its parent.

  python3 tools/bench_pairs.py --parent ../parent --change . --pr N \\
      --pairs 10 --seed 11 --claim hfr-ml-ncf:run_s

Both arguments are checkouts holding bench/e2e/run.py and BENCHMARK.json
(each builds its own .bench_build on first use). For every pair and every
workload in the change's BENCHMARK.json, the tool runs run.py once in each
checkout for the benchmark's run_seconds, the order alternating from pair
to pair so that a drift of the host does not favour one side; at least 10
pairs, the fewest the gain rule can judge. TRACE_PAIRS further pairs run the
traced mode for the per-layer metrics. It writes BENCH_<pr>.json (default: at
the change checkout's root) with, per workload and metric, each side's
samples, median and quartiles, and the pairs the change won; the gain-rule
and bound verdicts; the correct/failed counts; and the host's
reference_setup block.

Verdicts, per workload and end-to-end metric:
  bound: "worse" when the change's median is worse than the parent's by
    more than the metric's bound (relative), else "unresolved" when either
    side's interquartile range exceeds the bound times its median and not
    every run of the change reads better than every run of the parent,
    else "ok".
  gain: true when the change won at least 9 in 10 of the pairs and its
    median is better than the parent's by more than the parent's
    interquartile range.
Exits 1 when a bound verdict is "worse", the change fails a larger share of
operations than the parent, or the --claim metric shows no gain.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

# Traced pairs after the untraced ones: enough to see which phases moved,
# not to certify a phase.
TRACE_PAIRS = 3
MIN_PAIRS = 10


def quartiles(values):
    """Median and the two quartiles (inclusive method, as numpy's default)."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit("bench_pairs: {} exited {}".format(" ".join(cmd),
                                                    done.returncode))
    return json.loads(lines[0]), json.loads(lines[-1])


def better_than(a, b, better):
    return a < b if better == "lower" else a > b


def summarize(spec_metrics, runs, with_bounds):
    """Per-metric statistics over paired runs [(parent, change), ...]."""
    out = {}
    for m in spec_metrics:
        name, better = m["name"], m["better"]
        pv = [p["metrics"][name]["value"] for p, _ in runs]
        cv = [c["metrics"][name]["value"] for _, c in runs]
        pmed, pq1, pq3 = quartiles(pv)
        cmed, cq1, cq3 = quartiles(cv)
        wins = sum(better_than(c, p, better) for p, c in zip(pv, cv))
        entry = {
            "unit": m["unit"], "better": better,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "samples": pv},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "samples": cv},
            "change_over_parent": cmed / pmed if pmed else None,
            "change_wins": wins, "pairs": len(runs),
            "gain": (10 * wins >= 9 * len(runs) and
                     better_than(cmed, pmed, better) and
                     abs(cmed - pmed) > pq3 - pq1),
        }
        if with_bounds:
            bound = m["bound"]
            entry["bound"] = bound
            worse = (cmed - pmed) if better == "lower" else (pmed - cmed)
            if pmed and worse / abs(pmed) > bound:
                entry["bound_verdict"] = "worse"
            elif ((pq3 - pq1 > bound * abs(pmed) or
                   cq3 - cq1 > bound * abs(cmed)) and
                  not all(better_than(c, p, better) for c in cv
                          for p in pv)):
                entry["bound_verdict"] = "unresolved"
            else:
                entry["bound_verdict"] = "ok"
        out[name] = entry
    return out


def counts(runs, side):
    results = [r[side] for r in runs]
    return {"correct": sum(1 for r in results if r["correct"]),
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--claim", default=None,
                    help="WORKLOAD:METRIC whose gain the change claims")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error("--pairs must be >= {}".format(MIN_PAIRS))
    return args


def main(argv):
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    runs = {w: {0: [], 1: []} for w in workloads}
    setup = None
    for trace, n in ((0, args.pairs), (1, TRACE_PAIRS)):
        for i in range(n):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                            "parent")
            for w in workloads:
                got = {}
                for side in order:
                    report, result = run_once(sides[side], w, args.seed,
                                              seconds, trace)
                    got[side] = result
                    if side == "change" and setup is None:
                        setup = report["reference_setup"]
                runs[w][trace].append(got)
                r = got["change"]["metrics"]
                print("pair {}/{} trace={} {}: {}".format(
                    i + 1, n, trace, w, json.dumps(
                        {k: v["value"] for k, v in r.items()})),
                    file=sys.stderr)

    bench = {"pr": args.pr, "seed": args.seed, "seconds": seconds,
             "pairs": args.pairs, "trace_pairs": TRACE_PAIRS,
             "reference_setup": setup, "workloads": {}}
    bad = []
    for w in workloads:
        pairs = [(r["parent"], r["change"]) for r in runs[w][0]]
        traced = [(r["parent"], r["change"]) for r in runs[w][1]]
        entry = {
            "end_to_end": summarize(spec["end_to_end"], pairs, True),
            "per_layer": summarize(spec["per_layer"], traced, False),
            "counts": {"parent": counts(runs[w][0], "parent"),
                       "change": counts(runs[w][0], "change")},
        }
        bench["workloads"][w] = entry
        for name, m in entry["end_to_end"].items():
            if m["bound_verdict"] == "worse":
                bad.append("{} {} worse than its bound".format(w, name))
        share = {s: c["failed"] / max(1, c["attempted"])
                 for s, c in entry["counts"].items()}
        if share["change"] > share["parent"]:
            bad.append("{} fails a larger share of operations".format(w))
    if args.claim:
        w, name = args.claim.split(":")
        gain = bench["workloads"][w]["end_to_end"][name]["gain"]
        bench["claim"] = {"workload": w, "metric": name, "gain": gain}
        if not gain:
            bad.append("claimed {} on {} shows no gain".format(name, w))
    bench["verdict"] = "fail" if bad else "pass"
    bench["problems"] = bad

    out = args.out or os.path.join(sides["change"],
                                   "BENCH_{}.json".format(args.pr))
    text = json.dumps(bench, indent=1, sort_keys=True)
    # One line per list of samples.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(out, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print("bench_pairs: wrote {} ({})".format(out, bench["verdict"]))
    for line in bad:
        print("  " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
