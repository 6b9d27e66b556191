#!/usr/bin/env python3
"""Self-test for tools/lint/hfr_lint.py, run via ctest (lint_tool_test).

Drives the linter over the known-bad / known-good fixture tree in
tests/lint/fixtures/ and asserts, per rule R1-R5:

  - every *bad* fixture exits non-zero with exactly the expected findings,
    all carrying the expected rule id;
  - every *good* fixture exits zero with no findings;
  - suppressions with reasons silence findings, reasonless suppressions are
    themselves findings and silence nothing;
  - the R3 owned-declaration check and the R5 ISA/optimize attribute check
    apply under src/ but not under tests/;
  - baselined findings do not fail the run, and the JSON output reports
    them separately;
  - --list-rules names all five rules.

A broken rule therefore fails tier-1, not just the standalone lint job.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
LINT = os.path.join(REPO_ROOT, "tools", "lint", "hfr_lint.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint", "fixtures")

FAILURES = []


def check(cond, label, detail=""):
    status = "ok" if cond else "FAIL"
    print("[{}] {}".format(status, label))
    if not cond:
        if detail:
            print("       " + detail.replace("\n", "\n       "))
        FAILURES.append(label)


def run_lint(args, root=REPO_ROOT, baseline=None):
    cmd = [sys.executable, LINT, "--root", root, "--json"]
    if baseline is not None:
        cmd += ["--baseline", baseline]
    cmd += args
    proc = subprocess.run(cmd, capture_output=True, text=True)
    try:
        data = json.loads(proc.stdout) if proc.stdout else {}
    except ValueError:
        data = {}
    return proc.returncode, data, proc.stderr


def empty_baseline(tmp):
    path = os.path.join(tmp, "empty_baseline.json")
    with open(path, "w") as f:
        json.dump({"findings": []}, f)
    return path


def fixture(name):
    return os.path.join("tests", "lint", "fixtures", name)


def main():
    tmp = tempfile.mkdtemp(prefix="hfr_lint_test_")
    try:
        bl = empty_baseline(tmp)

        # --- bad fixtures: exact finding counts, single rule each ---------
        bad_cases = [
            ("r1_bad.cc", "R1", 6),
            ("r2_bad.cc", "R2", 5),
            ("r3_bad.cc", "R3", 2),
            ("r4_bad.cc", "R4", 4),
            ("r5_bad.cmake", "R5", 5),
        ]
        for name, rule, expected in bad_cases:
            rc, data, err = run_lint([fixture(name)], baseline=bl)
            findings = data.get("findings", [])
            rules = sorted({f["rule"] for f in findings})
            check(rc == 1, "{}: exit 1".format(name),
                  "exit={} stderr={}".format(rc, err))
            check(len(findings) == expected,
                  "{}: {} findings".format(name, expected),
                  "got {}: {}".format(len(findings),
                                      json.dumps(findings, indent=1)))
            check(rules == [rule], "{}: all findings are {}".format(name, rule),
                  "rules={}".format(rules))

        # --- good fixtures: clean ----------------------------------------
        good = ["r1_good.cc", "r1_suppressed.cc", "r2_good.cc", "r3_good.cc",
                "r4_good.cc", "r5_good.cmake"]
        for name in good:
            rc, data, err = run_lint([fixture(name)], baseline=bl)
            findings = data.get("findings", [])
            check(rc == 0 and not findings, "{}: clean".format(name),
                  "exit={} findings={}".format(
                      rc, json.dumps(findings, indent=1)))

        # --- malformed suppressions --------------------------------------
        rc, data, _ = run_lint([fixture("suppression_malformed.cc")],
                               baseline=bl)
        findings = data.get("findings", [])
        msgs = " | ".join(f["message"] for f in findings)
        check(rc == 1 and len(findings) == 3,
              "suppression_malformed.cc: 3 findings (2 malformed + 1 "
              "surviving R1)",
              "got {}: {}".format(len(findings), msgs))
        check(sum(1 for f in findings if "without a reason" in f["message"])
              == 2, "suppression_malformed.cc: reasonless suppressions "
              "reported", msgs)
        check(any(f["rule"] == "R1" and "quarantine" in f["message"]
                  for f in findings),
              "suppression_malformed.cc: underlying R1 finding survives",
              msgs)

        # --- R3 owned-declaration check is src/-scoped -------------------
        decl_src = os.path.join(tmp, "declroot", "src", "registry.cc")
        os.makedirs(os.path.dirname(decl_src))
        shutil.copy(os.path.join(FIXTURES, "r3_bad_decl.cc"), decl_src)
        rc, data, _ = run_lint(["src/registry.cc"],
                               root=os.path.join(tmp, "declroot"), baseline=bl)
        findings = data.get("findings", [])
        check(rc == 1 and len(findings) == 1 and findings[0]["rule"] == "R3",
              "r3_bad_decl.cc under src/: unannotated decl is a finding",
              json.dumps(findings, indent=1))
        rc, data, _ = run_lint([fixture("r3_bad_decl.cc")], baseline=bl)
        check(rc == 0 and not data.get("findings"),
              "r3_bad_decl.cc under tests/: decl check does not apply",
              json.dumps(data.get("findings", []), indent=1))

        # --- R5 attribute/pragma check is src/-scoped --------------------
        attr_root = os.path.join(tmp, "attrroot")
        for name in ("r5_bad_attr.cc", "r5_good_attr.cc"):
            dst = os.path.join(attr_root, "src", name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy(os.path.join(FIXTURES, name), dst)
        rc, data, _ = run_lint(["src/r5_bad_attr.cc"], root=attr_root,
                               baseline=bl)
        findings = data.get("findings", [])
        check(rc == 1 and len(findings) == 6
              and all(f["rule"] == "R5" for f in findings),
              "r5_bad_attr.cc under src/: 6 R5 findings",
              json.dumps(findings, indent=1))
        rc, data, _ = run_lint(["src/r5_good_attr.cc"], root=attr_root,
                               baseline=bl)
        check(rc == 0 and not data.get("findings"),
              "r5_good_attr.cc under src/: clean",
              json.dumps(data.get("findings", []), indent=1))
        rc, data, _ = run_lint([fixture("r5_bad_attr.cc")], baseline=bl)
        check(rc == 0 and not data.get("findings"),
              "r5_bad_attr.cc under tests/: attribute check does not apply",
              json.dumps(data.get("findings", []), indent=1))
        # --- baseline semantics ------------------------------------------
        rc, data, _ = run_lint([fixture("r1_bad.cc")], baseline=bl)
        keys = ["{}:{}:{}".format(f["file"], f["rule"], f["snippet"])
                for f in data.get("findings", [])]
        legacy = os.path.join(tmp, "legacy_baseline.json")
        with open(legacy, "w") as f:
            json.dump({"findings": [{"key": k} for k in keys]}, f)
        rc, data, err = run_lint([fixture("r1_bad.cc")], baseline=legacy)
        check(rc == 0 and not data.get("findings")
              and len(data.get("baselined", [])) == 6,
              "baseline: baselined findings pass but stay reported",
              "exit={} findings={} baselined={} stderr={}".format(
                  rc, len(data.get("findings", [])),
                  len(data.get("baselined", [])), err))

        # --- the shipped baseline must be empty --------------------------
        with open(os.path.join(REPO_ROOT, "tools", "lint",
                               "baseline.json")) as f:
            shipped = json.load(f)
        check(shipped.get("findings") == [],
              "shipped tools/lint/baseline.json is empty")

        # --- rule catalogue ----------------------------------------------
        proc = subprocess.run([sys.executable, LINT, "--list-rules"],
                              capture_output=True, text=True)
        check(proc.returncode == 0
              and all(r in proc.stdout
                      for r in ["R1", "R2", "R3", "R4", "R5"]),
              "--list-rules names R1..R5", proc.stdout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if FAILURES:
        print("\n{} check(s) FAILED".format(len(FAILURES)))
        return 1
    print("\nall lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
