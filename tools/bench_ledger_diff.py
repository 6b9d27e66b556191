#!/usr/bin/env python3
"""Compares two benchmark ledgers (BENCH_<pr>.json from tools/bench_pairs.py).

  python3 tools/bench_ledger_diff.py BENCH_22.json BENCH_23.json

Each ledger pairs one change against its own parent. This tool lines up
the *change* sides of two ledgers: for every workload and end-to-end
metric it prints both change-side medians with their quartiles, the ratio
NEW / OLD, and each ledger's own bound verdict ("ok", "worse" or
"unresolved"; "-" where a ledger lacks the metric).

The two ledgers can come from different hosts or builds. When their
reference_setup blocks differ (compiler, flags, thread count, ISA, ...)
the tool prints a warning first: such a ratio measures the setups as much
as the code, so it is not a regression. The pairing seed is a property of
the run, not of the setup, and is left out of that comparison.

Exits 0 after printing the diff, 2 when a ledger cannot be read.
"""

import json
import sys

# reference_setup keys that describe the run rather than the host or build.
RUN_KEYS = {"seed"}


def load(path):
    with open(path, encoding="utf-8") as f:
        ledger = json.load(f)
    if not isinstance(ledger.get("workloads"), dict):
        raise ValueError("{}: no workloads block".format(path))
    return ledger


def setup_differences(old, new):
    """Lines naming every setup key whose value differs between ledgers."""
    a = old.get("reference_setup") or {}
    b = new.get("reference_setup") or {}
    lines = []
    for key in sorted((set(a) | set(b)) - RUN_KEYS):
        if a.get(key) != b.get(key):
            lines.append("  {}: {!r} -> {!r}".format(key, a.get(key),
                                                     b.get(key)))
    return lines


def fmt(x):
    return "{:.4g}".format(x)


def side(metric):
    """`median [q1, q3]` of a metric's change side, or "-"."""
    if metric is None:
        return "-"
    c = metric["change"]
    return "{} [{}, {}]".format(fmt(c["median"]), fmt(c["q1"]), fmt(c["q3"]))


def diff_rows(old, new):
    """One row per (workload, end-to-end metric) in either ledger."""
    rows = []
    workloads = sorted(set(old["workloads"]) | set(new["workloads"]))
    for w in workloads:
        a = old["workloads"].get(w, {}).get("end_to_end", {})
        b = new["workloads"].get(w, {}).get("end_to_end", {})
        for name in sorted(set(a) | set(b)):
            ma, mb = a.get(name), b.get(name)
            ratio = "-"
            if ma is not None and mb is not None and ma["change"]["median"]:
                ratio = "{:.3f}".format(mb["change"]["median"] /
                                        ma["change"]["median"])
            unit = (mb or ma).get("unit", "")
            better = (mb or ma).get("better", "")
            rows.append([w, "{} ({}, {})".format(name, unit, better),
                         side(ma), side(mb), ratio,
                         ma["bound_verdict"] if ma else "-",
                         mb["bound_verdict"] if mb else "-"])
    return rows


def render(rows, header):
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    out = []
    for r in [header] + rows:
        out.append("  ".join(c.ljust(widths[i])
                             for i, c in enumerate(r)).rstrip())
    return "\n".join(out)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        old, new = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as e:
        print("bench_ledger_diff: {}".format(e), file=sys.stderr)
        return 2
    print("ledger diff: {} (PR {}) -> {} (PR {})".format(
        argv[1], old.get("pr", "?"), argv[2], new.get("pr", "?")))
    differences = setup_differences(old, new)
    if differences:
        print("WARNING: the reference setups differ, so a ratio below is not "
              "a regression:")
        print("\n".join(differences))
    header = ["workload", "metric", "old change median [q1, q3]",
              "new change median [q1, q3]", "new/old", "old bound",
              "new bound"]
    print(render(diff_rows(old, new), header))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
