#!/usr/bin/env python3
"""hfr_lint: determinism lint for the HeteFedRec reproduction.

Machine-checks the bit-identity contract documented in docs/DETERMINISM.md:
run results must be a pure function of the experiment seed — independent of
thread count, shard count, telemetry knobs, wall-clock time, and memory
layout. The rules encode the ways that contract has historically been easy
to break in C++:

  R1 wall-clock        no system_clock/steady_clock/time()/rdtsc outside the
                       quarantined allowlist (timer.h, profiler.h, logging.cc)
  R2 ambient-random    no rand()/srand()/std::random_device/std engines —
                       all randomness routes through the seeded hash-draw Rng
  R3 unordered-iter    walks over std::unordered_map/unordered_set are
                       order-undefined; every walk (and, in src/, every owned
                       declaration) must carry an iteration-order-safe
                       annotation stating the commutativity argument
  R4 schedule-identity no std::this_thread / std::thread::id / pointer-keyed
                       ordering — thread identity and addresses vary run-to-run
  R5 fast-math         no reassociation flags in any CMake target; AVX2 TUs
                       stay -mavx2 -mfma only; in src/, no target/
                       target_clones attribute or GCC target pragma naming
                       fma, arch= or avx512, and no optimize attribute or
                       pragma

Suppressions (mandatory reason, checked non-empty):

  // hfr-lint: allow(R1): <reason>           same line or the line above
  // hfr-lint: iteration-order-safe(<reason>)  R3-specific annotation
  // hfr-lint-file: allow(R1): <reason>      whole file
  # hfr-lint: allow(R5): <reason>            CMake comment form

A checked-in baseline (tools/lint/baseline.json) can carry legacy findings;
this repo's baseline ships empty and must stay empty — fix or annotate at
the source instead.

Exit codes: 0 clean, 1 findings, 2 usage/config error.

Dependency-light by design: stdlib only, no compiler, runs in well under
10 s on this repo.
"""

import argparse
import json
import os
import re
import sys

LINT_VERSION = "1.0"

# Paths scanned by default, relative to the repo root.
DEFAULT_SCAN_DIRS = ("src", "tools", "bench", "tests")
CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Deliberately-violating lint fixtures must not count as repo findings.
EXCLUDED_PATH_PARTS = ("tests/lint/fixtures",)

# R1: the wall-clock quarantine. These files may read real time because
# their output is either never results-affecting (log prefixes, --profile
# dumps) or is the sanctioned stopwatch benches report through.
WALL_CLOCK_ALLOWLIST = (
    "src/util/timer.h",
    "src/util/telemetry/profiler.h",
    "src/util/logging.cc",
)


class Rule:
    def __init__(self, rule_id, name, summary):
        self.rule_id = rule_id
        self.name = name
        self.summary = summary


RULES = {
    "R1": Rule(
        "R1",
        "wall-clock",
        "Wall-clock reads (system_clock/steady_clock/time()/rdtsc/...) are "
        "forbidden outside the quarantine allowlist: "
        + ", ".join(WALL_CLOCK_ALLOWLIST)
        + ". Measure time through util/Timer or HFR_PROFILE.",
    ),
    "R2": Rule(
        "R2",
        "ambient-randomness",
        "rand()/srand()/std::random_device/std::mt19937-family engines are "
        "forbidden: all randomness must route through the explicitly seeded "
        "Rng (src/util/rng.h) or its hash-draw streams.",
    ),
    "R3": Rule(
        "R3",
        "unordered-iteration",
        "Iterating a std::unordered_map/unordered_set visits elements in an "
        "unspecified, libc++/libstdc++- and size-dependent order. Every walk "
        "must be annotated `// hfr-lint: iteration-order-safe(<reason>)` "
        "with the commutativity argument; in src/, every owned declaration "
        "must carry the same annotation documenting its access discipline.",
    ),
    "R4": Rule(
        "R4",
        "schedule-identity",
        "std::this_thread, std::thread::id, and pointer-keyed ordering "
        "(map<T*,...>, set<T*>) leak scheduling / address-space identity "
        "into results. Key by stable ids (user, item, slot) instead.",
    ),
    "R5": Rule(
        "R5",
        "fast-math",
        "Reassociating math flags (-ffast-math, -funsafe-math-optimizations, "
        "-fassociative-math, -freciprocal-math, -Ofast, -ffp-contract=fast) "
        "break bitwise reproducibility; AVX2 TUs carry -mavx2/-mfma only. "
        "In src/, target/target_clones attributes and GCC target pragmas "
        "may not name fma, arch= or avx512 (implicit FMA contraction), and "
        "optimize attributes/pragmas are forbidden.",
    ),
}


class Finding:
    def __init__(self, path, line, rule_id, message, snippet):
        self.path = path
        self.line = line
        self.rule_id = rule_id
        self.message = message
        self.snippet = snippet.strip()

    def key(self):
        # Baseline key is line-number-free so entries survive unrelated
        # edits; the snippet pins the construct itself.
        return "{}:{}:{}".format(self.path, self.rule_id, self.snippet)

    def to_json(self):
        return {
            "file": self.path,
            "line": self.line,
            "rule": self.rule_id,
            "rule_name": RULES[self.rule_id].name,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self):
        return "{}:{}: [{}:{}] {}\n    {}".format(
            self.path, self.line, self.rule_id, RULES[self.rule_id].name,
            self.message, self.snippet)


# --- suppression parsing -----------------------------------------------------

SUPPRESS_RE = re.compile(
    r"hfr-lint:\s*allow\((R[1-5])\)\s*:\s*(.*?)\s*(?:\*/)?\s*$")
FILE_SUPPRESS_RE = re.compile(
    r"hfr-lint-file:\s*allow\((R[1-5])\)\s*:\s*(.*?)\s*(?:\*/)?\s*$")
ORDER_SAFE_RE = re.compile(
    r"hfr-lint:\s*iteration-order-safe\(([^)]*)\)")
# Any hfr-lint marker at all, for malformed-marker detection.
MARKER_RE = re.compile(r"hfr-lint")


class Suppressions:
    """Per-file suppression state parsed from raw (uncleaned) lines."""

    def __init__(self, path, raw_lines):
        self.file_level = {}  # rule_id -> reason
        self.line_level = {}  # line_no -> {rule_id: reason}
        self.malformed = []   # Finding list (empty reasons, bad syntax)
        comment_re = re.compile(r"(//|#)(.*)$")
        for i, raw in enumerate(raw_lines, start=1):
            if "hfr-lint" not in raw:
                continue
            m = comment_re.search(raw)
            comment = m.group(2) if m else raw
            fm = FILE_SUPPRESS_RE.search(comment)
            lm = SUPPRESS_RE.search(comment)
            om = ORDER_SAFE_RE.search(comment)
            if fm:
                rule_id, reason = fm.group(1), fm.group(2)
                if not reason:
                    self.malformed.append(Finding(
                        path, i, rule_id,
                        "file-level suppression without a reason", raw))
                else:
                    self.file_level[rule_id] = reason
            elif lm:
                rule_id, reason = lm.group(1), lm.group(2)
                if not reason:
                    self.malformed.append(Finding(
                        path, i, rule_id,
                        "suppression without a reason", raw))
                else:
                    self._add(i, raw, rule_id, reason)
            elif om:
                reason = om.group(1).strip()
                if not reason:
                    self.malformed.append(Finding(
                        path, i, "R3",
                        "iteration-order-safe annotation without a reason",
                        raw))
                else:
                    self._add(i, raw, "R3", reason)
            elif MARKER_RE.search(comment):
                self.malformed.append(Finding(
                    path, i, "R3",
                    "unrecognized hfr-lint marker (syntax: "
                    "`hfr-lint: allow(Rn): reason` or "
                    "`hfr-lint: iteration-order-safe(reason)`)", raw))

    def _add(self, line_no, raw, rule_id, reason):
        # A suppression on its own comment line covers the next line; a
        # trailing suppression covers its own line. Register both — the
        # covered construct is on exactly one of them.
        before = raw.split("//")[0].split("#")[0]
        targets = [line_no] if before.strip() else [line_no, line_no + 1]
        for t in targets:
            self.line_level.setdefault(t, {})[rule_id] = reason

    def covers(self, line_no, rule_id):
        if rule_id in self.file_level:
            return True
        return rule_id in self.line_level.get(line_no, {})


# --- source cleaning ---------------------------------------------------------

def clean_cxx(lines):
    """Blanks out comments and string/char literals, preserving line
    structure, so rule regexes never match prose or log messages."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            if in_block:
                if ch == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if ch == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest of line is a comment
            if ch == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if ch == '"' or ch == "'":
                quote = ch
                res.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                res.append(quote)
                i += 1
                continue
            res.append(ch)
            i += 1
        out.append("".join(res))
    return out


def clean_cmake(lines):
    return [line.split("#")[0] for line in lines]


# --- C++ rules ---------------------------------------------------------------

R1_PATTERNS = [
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "chrono wall-clock read"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|&\w+)?\s*\)"),
     "C time() read"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"), "C clock() read"),
    (re.compile(r"\b(clock_gettime|gettimeofday|ftime)\b"),
     "POSIX wall-clock read"),
    (re.compile(r"\b(__rdtsc|_rdtsc|rdtscp?)\b"), "TSC read"),
    (re.compile(r"\b(localtime|gmtime|mktime)\s*\("),
     "calendar-time conversion"),
]

R2_PATTERNS = [
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"\b(rand_r|drand48|lrand48|mrand48|random_r)\b"),
     "C randomness"),
    (re.compile(r"\brandom_device\b"), "std::random_device (nondeterministic)"),
    (re.compile(r"\b(mt19937(_64)?|minstd_rand0?|default_random_engine|"
                r"ranlux\d+(_48)?|knuth_b)\b"),
     "std <random> engine (use the seeded Rng instead)"),
]

R4_PATTERNS = [
    (re.compile(r"\bthis_thread\b"), "std::this_thread"),
    (re.compile(r"\bthread::id\b"), "std::thread::id"),
    (re.compile(r"\.get_id\s*\("), "thread get_id()"),
    # Keyed by a raw pointer: map's key is the first template argument
    # (ends at ','), set's the only one (ends at ',' or '>').
    (re.compile(r"\b(?:multi)?map<\s*[^,<>]*\*\s*,"),
     "pointer-keyed map (address order varies run-to-run)"),
    (re.compile(r"\b(?:multi)?set<\s*[^,<>]*\*\s*[,>]"),
     "pointer-keyed set (address order varies run-to-run)"),
]

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
# An owned declaration: `std::unordered_map<...> name` where the token
# before the name is the closing `>` of the template (not `&`/`*`).
UNORDERED_OWNED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s+(\w+)\s*"
    r"(?:[;={(]|$)")


def find_unordered_names(clean_lines):
    """Names declared in this file as owned unordered containers, including
    elements of vectors-of-unordered (`vector<unordered_set<T>> name`)."""
    names = {}
    vec_re = re.compile(
        r"<\s*(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>"
        r"\s*>\s+(\w+)\s*[;={(]")
    for i, line in enumerate(clean_lines, start=1):
        if "unordered_" not in line:
            continue
        for m in UNORDERED_OWNED_DECL_RE.finditer(line):
            prefix = line[: m.start()]
            if prefix.rstrip().endswith(("&", "*")):
                continue
            names[m.group(1)] = i
        for m in vec_re.finditer(line):
            names[m.group(1)] = i
    return names


# R5 in C++ sources: ISA and optimization attributes/pragmas. Detection runs
# on the cleaned line (so comments and string literals never match); the
# attribute's string arguments are then read from the raw line.
ISA_ATTR_RE = re.compile(
    r"(?:__attribute__|\bgnu::).*\b_*(target|target_clones)_*\s*\(")
OPTIMIZE_ATTR_RE = re.compile(
    r"(?:__attribute__|\bgnu::).*\b_*optimize_*\s*\(")
GCC_PRAGMA_RE = re.compile(r"#\s*pragma\s+GCC\s+(target|optimize)\b")
CONTRACTING_ISA_RE = re.compile(r"fma|arch=|avx512")


def r5_attribute_finding(clean_line, raw_line):
    """Message for an R5 attribute/pragma on this line, or None."""
    pragma = GCC_PRAGMA_RE.search(clean_line)
    if OPTIMIZE_ATTR_RE.search(clean_line) or (
            pragma and pragma.group(1) == "optimize"):
        return ("optimize attribute/pragma overrides the build's "
                "floating-point flags")
    if ISA_ATTR_RE.search(clean_line) or pragma:
        code = raw_line.split("//")[0]
        names = [a for a in re.findall(r'"([^"]*)"', code)
                 if CONTRACTING_ISA_RE.search(a)]
        if names:
            return ("ISA attribute/pragma {} enables FMA contraction or an "
                    "unsanctioned ISA — fp64 code must keep separate "
                    "multiplies and adds".format(names))
    return None


def scan_cxx_file(relpath, raw_lines, in_src):
    clean = clean_cxx(raw_lines)
    sup = Suppressions(relpath, raw_lines)
    findings = list(sup.malformed)

    def emit(line_no, rule_id, message):
        if not sup.covers(line_no, rule_id):
            findings.append(Finding(relpath, line_no, rule_id, message,
                                    raw_lines[line_no - 1]))

    allow_wall_clock = relpath in WALL_CLOCK_ALLOWLIST

    unordered = find_unordered_names(clean)
    # Pre-build the per-name walk patterns once per file.
    walk_res = []
    for name in unordered:
        walk_res.append((name, re.compile(
            r"for\s*\([^;()]*:\s*(?:\*?\s*)?" + re.escape(name) + r"\s*\)")))
        walk_res.append((name, re.compile(
            r"\b" + re.escape(name) + r"\s*\.\s*c?r?begin\s*\(")))

    for i, line in enumerate(clean, start=1):
        if not line.strip():
            continue
        if not allow_wall_clock:
            for pat, what in R1_PATTERNS:
                if pat.search(line):
                    emit(i, "R1", what + " outside the wall-clock quarantine")
                    break
        for pat, what in R2_PATTERNS:
            if pat.search(line):
                emit(i, "R2", what)
                break
        for pat, what in R4_PATTERNS:
            if pat.search(line):
                emit(i, "R4", what)
                break
        if in_src:
            r5 = r5_attribute_finding(line, raw_lines[i - 1])
            if r5:
                emit(i, "R5", r5)
        if "unordered_" in line and in_src:
            for m in UNORDERED_OWNED_DECL_RE.finditer(line):
                prefix = line[: m.start()]
                if prefix.rstrip().endswith(("&", "*")):
                    continue
                emit(i, "R3",
                     "owned unordered container `{}` declared in "
                     "results-affecting code without an "
                     "iteration-order-safe annotation".format(m.group(1)))
        for name, pat in walk_res:
            if name in line and pat.search(line):
                emit(i, "R3",
                     "iteration over unordered container `{}` (order is "
                     "unspecified)".format(name))
    return findings


# --- CMake rules (R5) --------------------------------------------------------

FAST_MATH_RE = re.compile(
    r"-ffast-math|-funsafe-math-optimizations|-fassociative-math|"
    r"-freciprocal-math|-Ofast|-ffp-contract=fast|/fp:fast")
ISA_FLAG_RE = re.compile(r"-m[a-z0-9=\-]+")
ALLOWED_ISA_FLAGS = {"-mavx2", "-mfma"}


def scan_cmake_file(relpath, raw_lines):
    clean = clean_cmake(raw_lines)
    sup = Suppressions(relpath, raw_lines)
    findings = list(sup.malformed)

    def emit(line_no, message):
        if not sup.covers(line_no, "R5"):
            findings.append(Finding(relpath, line_no, "R5", message,
                                    raw_lines[line_no - 1]))

    for i, line in enumerate(clean, start=1):
        if FAST_MATH_RE.search(line):
            emit(i, "reassociating math flag breaks bit-identity")
        if "-mavx2" in line or "-mfma" in line:
            bad = [f for f in ISA_FLAG_RE.findall(line)
                   if f not in ALLOWED_ISA_FLAGS]
            if bad:
                emit(i, "AVX2 TU carries extra ISA/math flags {} — "
                        "only -mavx2 -mfma are sanctioned".format(bad))
    return findings


# --- driver ------------------------------------------------------------------

def iter_files(root, scan_dirs):
    for d in scan_dirs:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fn in sorted(filenames):
                full = os.path.join(dirpath, fn)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                if any(part in rel for part in EXCLUDED_PATH_PARTS):
                    continue
                yield rel, full
    # Top-level CMakeLists.txt sits outside the scan dirs.
    top_cmake = os.path.join(root, "CMakeLists.txt")
    if os.path.isfile(top_cmake):
        yield "CMakeLists.txt", top_cmake


def scan_path(rel, full):
    try:
        with open(full, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [Finding(rel, 0, "R1", "unreadable file: {}".format(e), "")]
    if rel.endswith(CXX_EXTENSIONS):
        return scan_cxx_file(rel, raw_lines, rel.startswith("src/"))
    if rel.endswith((".cmake",)) or os.path.basename(rel) == "CMakeLists.txt":
        return scan_cmake_file(rel, raw_lines)
    return []


def load_baseline(path):
    if not os.path.isfile(path):
        return set()
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print("hfr_lint: cannot read baseline {}: {}".format(path, e),
              file=sys.stderr)
        sys.exit(2)
    return {entry["key"] for entry in data.get("findings", [])}


def main(argv):
    ap = argparse.ArgumentParser(
        prog="hfr_lint", description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: <root>/tools/lint/"
                         "baseline.json)")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable JSON on stdout")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to scan (default: {})".format(
                        " ".join(DEFAULT_SCAN_DIRS)))
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print("{} {}\n    {}".format(rule.rule_id, rule.name,
                                         rule.summary))
        return 0

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(root):
        print("hfr_lint: no such root: {}".format(root), file=sys.stderr)
        return 2

    if args.paths:
        files = []
        for p in args.paths:
            full = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(full):
                rel_dir = os.path.relpath(full, root).replace(os.sep, "/")
                files.extend(iter_files(root, [rel_dir]))
            elif os.path.isfile(full):
                files.append(
                    (os.path.relpath(full, root).replace(os.sep, "/"), full))
            else:
                print("hfr_lint: no such path: {}".format(p), file=sys.stderr)
                return 2
        # De-dup while keeping order (top-level CMakeLists may repeat).
        seen, uniq = set(), []
        for rel, full in files:
            if rel not in seen:
                seen.add(rel)
                uniq.append((rel, full))
        files = uniq
    else:
        files = list(iter_files(root, DEFAULT_SCAN_DIRS))

    baseline_path = args.baseline or os.path.join(
        root, "tools", "lint", "baseline.json")
    baseline = load_baseline(baseline_path)

    findings = []
    baselined = []
    for rel, full in files:
        for f in scan_path(rel, full):
            if f.key() in baseline:
                baselined.append(f)
            else:
                findings.append(f)

    if args.json:
        print(json.dumps({
            "version": LINT_VERSION,
            "root": root,
            "files_scanned": len(files),
            "findings": [f.to_json() for f in findings],
            "baselined": [f.to_json() for f in baselined],
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        print("hfr_lint: {} file(s), {} finding(s), {} baselined".format(
            len(files), len(findings), len(baselined)))
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # stdout piped into head/grep and closed early; not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
