#!/usr/bin/env python3
"""Self-test for tools/bench_ledger_diff.py, run via ctest
(bench_ledger_diff_selftest).

Diffs the checked-in ledgers BENCH_22.json and BENCH_23.json and asserts:

  - the tool exits 0 with one row per workload and end-to-end metric,
    whose ratio and bound verdicts match the ledgers' own numbers;
  - two ledgers from one setup (they differ only in the pairing seed) print
    no setup warning, while a changed compiler or thread count does;
  - a metric present in one ledger only prints "-" for the other;
  - an unreadable ledger exits 2.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
TOOL = os.path.join(REPO_ROOT, "tools", "bench_ledger_diff.py")
OLD = os.path.join(REPO_ROOT, "BENCH_22.json")
NEW = os.path.join(REPO_ROOT, "BENCH_23.json")

FAILURES = []


def check(cond, label, detail=""):
    print("[{}] {}".format("ok" if cond else "FAIL", label))
    if not cond:
        if detail:
            print(detail)
        FAILURES.append(label)


def run(old, new):
    p = subprocess.run([sys.executable, TOOL, old, new],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       universal_newlines=True)
    return p.returncode, p.stdout, p.stderr


def rows_of(out):
    """Table rows keyed by (workload, metric name)."""
    rows = {}
    for line in out.splitlines():
        cols = line.split()
        if len(cols) >= 2 and "(" in line and not line.startswith(
                ("workload", "ledger", "WARNING", " ")):
            rows[(cols[0], cols[1])] = cols
    return rows


def main():
    with open(OLD, encoding="utf-8") as f:
        old = json.load(f)
    with open(NEW, encoding="utf-8") as f:
        new = json.load(f)

    code, out, err = run(OLD, NEW)
    check(code == 0, "22 -> 23 exits 0", err)
    check("WARNING" not in out, "same setup prints no warning", out)
    rows = rows_of(out)
    expected = {(w, m) for w in new["workloads"]
                for m in new["workloads"][w]["end_to_end"]}
    check(set(rows) == expected,
          "one row per workload and end-to-end metric ({})".format(
              len(expected)), out)
    for (w, m) in sorted(expected):
        a = old["workloads"][w]["end_to_end"][m]
        b = new["workloads"][w]["end_to_end"][m]
        ratio = "{:.3f}".format(b["change"]["median"] / a["change"]["median"])
        cols = rows.get((w, m), [])
        check(cols[-3:] == [ratio, a["bound_verdict"], b["bound_verdict"]],
              "{} {}: ratio {} and both verdicts".format(w, m, ratio),
              " ".join(cols))

    with tempfile.TemporaryDirectory() as tmp:
        moved = json.loads(json.dumps(new))
        moved["reference_setup"]["compiler"] = "13.2.0"
        moved["reference_setup"]["threads"] = 4
        del moved["workloads"]["hfr-ml-ncf"]["end_to_end"]["setup_s"]
        moved_path = os.path.join(tmp, "moved.json")
        with open(moved_path, "w", encoding="utf-8") as f:
            json.dump(moved, f)
        code, out, err = run(OLD, moved_path)
        check(code == 0, "changed setup still exits 0", err)
        check("WARNING" in out and "compiler" in out and "threads" in out,
              "changed compiler and thread count are named", out)
        cols = rows_of(out).get(("hfr-ml-ncf", "setup_s"), [])
        check(cols[-3:] == ["-", old["workloads"]["hfr-ml-ncf"]["end_to_end"]
                            ["setup_s"]["bound_verdict"], "-"],
              "a metric missing from one ledger prints '-'", " ".join(cols))

        code, _, err = run(OLD, os.path.join(tmp, "missing.json"))
        check(code == 2, "a missing ledger exits 2", err)

    if FAILURES:
        print("{} check(s) failed".format(len(FAILURES)))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
