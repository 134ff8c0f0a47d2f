#!/usr/bin/env python3
"""hpa-lint: project-specific static analysis for the HPA simulator.

Machine-checks the invariants this repo earned in PRs 1-4 but until
now enforced only by convention and review:

  HPA001 sim-error-throw   every `throw` in library/tool code must
                           construct a class from the SimError
                           taxonomy (src/sim/error.hh), so the sweep
                           engine and CLI always get a typed kind.
  HPA003 schema-registry   every "hpa.*.vN" schema literal in the
                           source must be registered in
                           tools/hpa_json_validate.cc and documented
                           in a markdown file.
  HPA004 banned-include    per-directory include bans: no <iostream>
                           in src/ (library code reports through
                           ostream&/errors, never global streams); no
                           threading headers outside the sweep engine
                           and workload cache; no <regex> anywhere.
  HPA005 stats-registry    every stats::Counter / stats::Distribution
                           member declared in a src/ header must be
                           registered with a Registry (reg.add(&x))
                           somewhere in src/, or it silently vanishes
                           from every report, JSON and CSV artifact.
  HPA006 policy-docs       every policy key registered in
                           src/core/policy_registry.cc must be
                           documented in EXPERIMENTS.md, so the
                           sweepable policy zoo and its guide can
                           never drift apart.
  HPA007 determinism       simulated behavior must be a pure
                           function of config + workload: no
                           wall-clock (<chrono>, time(), clock()),
                           no randomness sources (rand, random_device)
                           anywhere in src/, and no iteration over
                           std::unordered_* containers in the
                           deterministic sim core (src/core,
                           src/func) — hash-order iteration makes
                           output depend on pointer values. The
                           sweep engine's wall-time reporting is the
                           one audited exception, suppressed with
                           reasons.
  HPA000 suppression       hpa-nolint hygiene: a suppression must
                           name known rules, carry a reason, and
                           actually suppress something. Also checks
                           `hpa-prove-allow(P*): reason` comments
                           (tools/analyze/hpa_prove.py suppressions):
                           known property ids P1-P4, reason present.
                           Staleness of prove-allows is reported by
                           hpa_prove itself (stale_allows), which is
                           the only tool that knows what matched.

Suppressions: append `// hpa-nolint(RULE): reason` to the offending
line, or put it alone on the line directly above. Multiple rules:
`hpa-nolint(HPA001,HPA004): reason`. The reason is mandatory.

Allocation on the Core::tick path has no lint rule: hpa_prove's P1
proves it from the compiler's call graph (tools/analyze/hpa_prove.py)
and tests/test_hotpath_alloc.cc counts it at run time.

Output: human-readable findings (default) or a machine-readable
hpa.lint.v1 JSON document (--json FILE, '-' = stdout), validated in
ctest by hpa_json_validate. Exit 0 = clean, 1 = findings, 2 = usage.

`--changed-only` filters the REPORT to files touched per git (working
tree + index + untracked) for fast pre-commit runs; the scan itself
still covers the whole tree because the cross-file rules (HPA003,
HPA005, HPA006) need global context, so the filtered findings are
exactly the full scan's findings on those files.

Standard library only, by design: the linter must run anywhere the
repo builds, including minimal CI containers.
"""

import argparse
import json
import os
import re
import sys

LINT_SCHEMA = "hpa.lint.v1"

# Directories scanned relative to --root, and the extensions lint
# cares about. build trees and third-party checkouts are never
# walked.
SCAN_DIRS = ("src", "tools", "examples", "tests")
EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp")

# --- HPA001 -----------------------------------------------------------
# The SimError taxonomy (src/sim/error.hh + module-local subclasses).
# A new error type must be added here *and* derive from SimError; the
# self-test keeps the list honest.
SIM_ERROR_TYPES = {
    "ConfigError",
    "WorkloadError",
    "InvariantViolation",
    "Deadlock",
    "AsmError",
    "EmulationError",
}
# Tests may throw anything: they exercise catch paths and std-base
# compatibility on purpose.
THROW_SCOPE = ("src", "tools", "examples")

# --- HPA003 -----------------------------------------------------------
SCHEMA_LITERAL_RE = re.compile(r'"(hpa\.[a-z0-9_-]+(?:\.[a-z0-9_-]+)*\.v[0-9]+)"')
VALIDATOR_SOURCE = "tools/hpa_json_validate.cc"
DOC_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs")

# --- HPA004 -----------------------------------------------------------
# (ban regex, directories it applies to, directories exempted,
#  rationale shown in the finding)
THREAD_HEADERS = r"<(?:thread|mutex|atomic|condition_variable|future)>"
INCLUDE_BANS = [
    (
        re.compile(r"#\s*include\s*<iostream>"),
        ("src/",),
        (),
        "library code must not pull in global streams; take an "
        "std::ostream& or raise a SimError instead",
    ),
    (
        re.compile(r"#\s*include\s*" + THREAD_HEADERS),
        ("src/",),
        ("src/sim/", "src/workloads/", "src/func/"),
        "concurrency is confined to the sweep engine, the build-once "
        "workload cache and the once_flag trace cache",
    ),
    (
        re.compile(r"#\s*include\s*<regex>"),
        ("src/", "tools/", "examples/", "tests/"),
        (),
        "<regex> is a compile-time and runtime heavyweight; use "
        "hand-rolled parsing",
    ),
]

# --- HPA005 -----------------------------------------------------------
STAT_MEMBER_RE = re.compile(
    r"stats::(?:Counter|Distribution)\s+([A-Za-z_]\w*)\s*[;{]"
)
STAT_REGISTER_RE = re.compile(r"\badd\(\s*&(?:\w+\.)*([A-Za-z_]\w*)\s*\)")

# --- HPA006 -----------------------------------------------------------
# Registration tables keep one entry per line, key first (the
# registry source says so); this regex is that convention.
POLICY_REGISTRY_SOURCE = "src/core/policy_registry.cc"
POLICY_ENTRY_RE = re.compile(r'^\s*\{"([a-z0-9-]+)",')
POLICY_DOC = "EXPERIMENTS.md"

# --- HPA007 -----------------------------------------------------------
# The deterministic sim core: simulated state may depend only on
# config + workload. Wall-clock and randomness are banned across
# src/ (the sweep engine's wall-time reporting, the one audited
# exception, carries hpa-nolint(HPA007) suppressions with reasons);
# hash-order iteration is banned in the layers that produce
# simulated output.
DETERMINISM_SCOPE = ("src/",)
DETERMINISM_ITER_SCOPE = ("src/core/", "src/func/")
WALLCLOCK_RE = re.compile(
    r"#\s*include\s*<chrono>"
    r"|std::chrono\b"
    r"|\b(?:time|clock|gettimeofday|clock_gettime)\s*\("
    r"|\b(?:rand|srand|rand_r|drand48|random)\s*\("
    r"|\brandom_device\b"
)
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+"
    r"([A-Za-z_]\w*)\s*[;{=(]"
)

# --- hpa-prove-allow hygiene (reported as HPA000) ---------------------
PROVE_ALLOW_RE = re.compile(
    r"//\s*hpa-prove-allow\(([^)]*)\)\s*(?::\s*(.*\S))?\s*$"
)
PROVE_PROPERTIES = {"P1", "P2", "P3", "P4"}

RULES = {
    "HPA000": "hpa-nolint/hpa-prove-allow suppressions must name "
              "known rules/properties, carry a reason, and (for "
              "hpa-nolint) suppress at least one finding",
    "HPA001": "throw must construct a SimError-taxonomy class",
    "HPA003": "hpa.*.vN schema literals must be registered in "
              "hpa_json_validate.cc and documented in markdown",
    "HPA004": "per-directory banned includes",
    "HPA005": "stats members must be registered with a Registry",
    "HPA006": "policy keys registered in policy_registry.cc must be "
              "documented in EXPERIMENTS.md",
    "HPA007": "no wall-clock/randomness in src/ and no hash-order "
              "iteration in the deterministic sim core (src/core, "
              "src/func)",
}

NOLINT_RE = re.compile(
    r"//\s*hpa-nolint\(([^)]*)\)\s*(?::\s*(.*\S))?\s*$"
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.rule)


class Suppression:
    """One hpa-nolint comment: where it sits and what it covers."""

    def __init__(self, path, line, rules, reason, target_line):
        self.path = path
        self.line = line          # line the comment is written on
        self.rules = rules
        self.reason = reason
        self.target_line = target_line  # line whose findings it hides
        self.used = False


def strip_cpp(text):
    """Replace comments and string/char literal bodies with spaces,
    preserving line structure, so rule regexes never match inside
    either. Handles //, /* */, "...", '...' and R"delim(...)delim"."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^(\s"\\]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j == -1 else j
            seg = text[i:j + len(close)]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + len(close)
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.splitlines()
        self.lines = strip_cpp(self.raw).splitlines()
        self.suppressions = self._collect_suppressions()

    def _collect_suppressions(self):
        sups = []
        for idx, line in enumerate(self.raw_lines, start=1):
            m = NOLINT_RE.search(line)
            if not m:
                continue
            rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
            reason = m.group(2) or ""
            # A comment alone on its line shields the next line;
            # otherwise it shields its own.
            alone = line[:m.start()].strip() == ""
            target = idx + 1 if alone else idx
            sups.append(Suppression(self.relpath, idx, rules, reason,
                                    target))
        return sups


class LintRun:
    def __init__(self, root):
        self.root = root
        self.files = []
        self.findings = []
        self.suppressed = 0

    def scan(self):
        for d in SCAN_DIRS:
            top = os.path.join(self.root, d)
            if not os.path.isdir(top):
                continue
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames[:] = sorted(
                    n for n in dirnames if not n.startswith(("build", ".")))
                for name in sorted(filenames):
                    if name.endswith(EXTENSIONS):
                        rel = os.path.relpath(
                            os.path.join(dirpath, name), self.root)
                        self.files.append(
                            SourceFile(self.root, rel.replace(os.sep, "/")))

    def report(self, path, line, rule, message):
        self.findings.append(Finding(path, line, rule, message))

    # --- rules --------------------------------------------------------

    def check_throws(self, f):
        if not f.relpath.startswith(THROW_SCOPE):
            return
        for idx, line in enumerate(f.lines, start=1):
            for m in re.finditer(r"\bthrow\b\s*([A-Za-z_:]\w*(?:::\w+)*)?",
                                 line):
                target = m.group(1)
                if target is None:
                    # bare rethrow `throw;` (or a wrapped expression
                    # continuing on the next line — resolve it there)
                    rest = line[m.end():].lstrip()
                    if rest.startswith(";") or rest == "":
                        continue
                name = (target or "").split("::")[-1]
                if name in SIM_ERROR_TYPES:
                    continue
                self.report(
                    f.relpath, idx, "HPA001",
                    "throw constructs '%s', which is not part of the "
                    "SimError taxonomy (src/sim/error.hh)"
                    % (target or "<expression>"))

    def check_schemas(self):
        validator = ""
        vpath = os.path.join(self.root, VALIDATOR_SOURCE)
        if os.path.exists(vpath):
            with open(vpath, encoding="utf-8") as fh:
                validator = fh.read()
        docs = []
        for g in DOC_GLOBS:
            p = os.path.join(self.root, g)
            if os.path.isfile(p):
                docs.append(p)
            elif os.path.isdir(p):
                for dirpath, _, filenames in os.walk(p):
                    docs.extend(os.path.join(dirpath, n)
                                for n in filenames if n.endswith(".md"))
        doc_text = ""
        for p in docs:
            with open(p, encoding="utf-8") as fh:
                doc_text += fh.read()
        for f in self.files:
            for idx, line in enumerate(f.raw_lines, start=1):
                for m in SCHEMA_LITERAL_RE.finditer(line):
                    tag = m.group(1)
                    if tag not in validator:
                        self.report(
                            f.relpath, idx, "HPA003",
                            "schema '%s' is not registered in %s"
                            % (tag, VALIDATOR_SOURCE))
                    if tag not in doc_text:
                        self.report(
                            f.relpath, idx, "HPA003",
                            "schema '%s' is not mentioned in any "
                            "markdown doc" % tag)

    def check_includes(self, f):
        for idx, line in enumerate(f.lines, start=1):
            for ban, dirs, exempt, why in INCLUDE_BANS:
                if not f.relpath.startswith(dirs):
                    continue
                if f.relpath.startswith(exempt):
                    continue
                m = ban.search(line)
                if m:
                    self.report(
                        f.relpath, idx, "HPA004",
                        "banned include %s: %s" % (m.group(0), why))

    def check_determinism(self, f):
        if not f.relpath.startswith(DETERMINISM_SCOPE):
            return
        # Consecutive matching lines coalesce into one finding (a
        # multi-line chrono statement needs one suppression, not
        # four); the suppression goes on the first line of the run.
        last = -2
        for idx, line in enumerate(f.lines, start=1):
            if WALLCLOCK_RE.search(line):
                if idx != last + 1:
                    self.report(
                        f.relpath, idx, "HPA007",
                        "wall-clock/randomness source in src/; "
                        "simulated behavior must be a pure function "
                        "of config + workload")
                last = idx
        if not f.relpath.startswith(DETERMINISM_ITER_SCOPE):
            return
        names = set(UNORDERED_DECL_RE.findall(
            re.sub(r"\s+", " ", "\n".join(f.lines))))
        if not names:
            return
        iter_res = [
            (name,
             re.compile(r"for\s*\([^;)]*:\s*(?:this->)?%s\s*\)"
                        % re.escape(name)),
             re.compile(r"\b%s\s*\.\s*(?:c?begin|c?end)\s*\("
                        % re.escape(name)))
            for name in names
        ]
        for idx, line in enumerate(f.lines, start=1):
            for name, range_re, begin_re in iter_res:
                if range_re.search(line) or begin_re.search(line):
                    self.report(
                        f.relpath, idx, "HPA007",
                        "iteration over std::unordered_* '%s' is "
                        "hash-order-dependent; snapshot into a "
                        "sorted sequence or use an ordered "
                        "container" % name)

    def check_prove_allows(self, f):
        # Hygiene only: hpa_prove reports stale allows itself (it is
        # the only tool that knows which edges matched).
        for idx, line in enumerate(f.raw_lines, start=1):
            m = PROVE_ALLOW_RE.search(line)
            if not m:
                continue
            props = [p.strip() for p in m.group(1).split(",")
                     if p.strip()]
            unknown = [p for p in props if p not in PROVE_PROPERTIES]
            if unknown or not props:
                self.report(
                    f.relpath, idx, "HPA000",
                    "hpa-prove-allow names unknown propert%s: %s "
                    "(known: %s)"
                    % ("y" if len(unknown) <= 1 else "ies",
                       ", ".join(unknown) or "<none>",
                       ", ".join(sorted(PROVE_PROPERTIES))))
            elif not (m.group(2) or ""):
                self.report(
                    f.relpath, idx, "HPA000",
                    "hpa-prove-allow has no reason; write "
                    "hpa-prove-allow(P*): why this edge is exempt")

    def check_policy_docs(self):
        # Silent when the registry source is not part of the scanned
        # tree (e.g. the self-test's synthetic temp repos).
        reg = next((f for f in self.files
                    if f.relpath == POLICY_REGISTRY_SOURCE), None)
        if reg is None:
            return
        doc_path = os.path.join(self.root, POLICY_DOC)
        doc_text = ""
        if os.path.exists(doc_path):
            with open(doc_path, encoding="utf-8") as fh:
                doc_text = fh.read()
        for idx, line in enumerate(reg.raw_lines, start=1):
            m = POLICY_ENTRY_RE.match(line)
            if m and m.group(1) not in doc_text:
                self.report(
                    reg.relpath, idx, "HPA006",
                    "registered policy '%s' is not documented in %s"
                    % (m.group(1), POLICY_DOC))

    def check_stats_registry(self):
        registered = set()
        for f in self.files:
            if f.relpath.startswith("src/") and f.relpath.endswith(".cc"):
                for m in STAT_REGISTER_RE.finditer(f.raw):
                    registered.add(m.group(1))
        for f in self.files:
            if not (f.relpath.startswith("src/")
                    and f.relpath.endswith(".hh")):
                continue
            if f.relpath == "src/stats/stats.hh":
                continue  # the framework itself, not a stat owner
            for idx, line in enumerate(f.lines, start=1):
                m = STAT_MEMBER_RE.search(line)
                if m and m.group(1) not in registered:
                    self.report(
                        f.relpath, idx, "HPA005",
                        "stat member '%s' is never registered "
                        "(reg.add(&%s)); it will be missing from "
                        "every report and artifact"
                        % (m.group(1), m.group(1)))

    # --- suppression handling ----------------------------------------

    def apply_suppressions(self):
        kept = []
        for fnd in self.findings:
            hidden = False
            for f in self.files:
                if f.relpath != fnd.path:
                    continue
                for sup in f.suppressions:
                    if (fnd.rule in sup.rules
                            and sup.target_line == fnd.line
                            and sup.reason):
                        sup.used = True
                        hidden = True
            if hidden:
                self.suppressed += 1
            else:
                kept.append(fnd)
        self.findings = kept
        # HPA000: malformed or unused suppressions are findings (a
        # stale nolint hides nothing but lies to the reader).
        for f in self.files:
            for sup in f.suppressions:
                unknown = [r for r in sup.rules if r not in RULES]
                if unknown:
                    self.report(
                        f.relpath, sup.line, "HPA000",
                        "suppression names unknown rule(s): %s"
                        % ", ".join(unknown))
                    continue
                if not sup.reason:
                    self.report(
                        f.relpath, sup.line, "HPA000",
                        "suppression has no reason; write "
                        "hpa-nolint(RULE): why this is exempt")
                    continue
                if not sup.used:
                    self.report(
                        f.relpath, sup.line, "HPA000",
                        "suppression of %s matches no finding; "
                        "delete the stale hpa-nolint"
                        % ",".join(sup.rules))

    # --- driver -------------------------------------------------------

    def run(self):
        self.scan()
        for f in self.files:
            self.check_throws(f)
            self.check_includes(f)
            self.check_determinism(f)
            self.check_prove_allows(f)
        self.check_schemas()
        self.check_stats_registry()
        self.check_policy_docs()
        self.apply_suppressions()
        self.findings.sort(key=Finding.sort_key)
        return self.findings


def changed_files(root):
    """Files touched per git: working tree + index + untracked.
    Returns None when git is unavailable or root is not a repo."""
    import subprocess
    changed = set()
    for cmd in (["git", "-C", root, "diff", "--name-only", "HEAD"],
                ["git", "-C", root, "ls-files", "--others",
                 "--exclude-standard"]):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=60)
        except (OSError, subprocess.SubprocessError):
            return None
        if r.returncode != 0:
            return None
        changed.update(l.strip() for l in r.stdout.splitlines()
                       if l.strip())
    return changed


def to_json(run, changed_only=False):
    return {
        "schema": LINT_SCHEMA,
        "root": os.path.abspath(run.root),
        "changed_only": changed_only,
        "files_scanned": len(run.files),
        "rules": [{"id": rid, "description": desc}
                  for rid, desc in sorted(RULES.items())],
        "findings": [
            {"file": f.path, "line": f.line, "rule": f.rule,
             "message": f.message}
            for f in run.findings
        ],
        "suppressed": run.suppressed,
        "ok": not run.findings,
    }


# --- self test --------------------------------------------------------

SELF_TEST_CASES = [
    # (description, relpath, source, expected rule ids)
    ("std throw is flagged", "src/x/a.cc",
     'void f() { throw std::runtime_error("boom"); }\n', ["HPA001"]),
    ("SimError throw is clean", "src/x/a.cc",
     'void f() { throw ConfigError("bad"); }\n', []),
    ("qualified SimError throw is clean", "src/x/a.cc",
     'void f() { throw hpa::InvariantViolation("bad"); }\n', []),
    ("bare rethrow is clean", "src/x/a.cc",
     "void f() { try {} catch (...) { throw; } }\n", []),
    ("throw in a comment is ignored", "src/x/a.cc",
     "// don't throw std::logic_error here\n", []),
    ("throw in a test file is ignored", "tests/t.cc",
     'void f() { throw std::runtime_error("x"); }\n', ["HPA001-absent"]),
    ("suppressed include with reason is clean", "src/x/a.cc",
     "#include <iostream> // hpa-nolint(HPA004): debug-only tool\n",
     []),
    ("suppression without reason is flagged", "src/x/a.cc",
     "#include <iostream> // hpa-nolint(HPA004)\n",
     ["HPA000", "HPA004"]),
    ("stale suppression is flagged", "src/x/a.cc",
     "int m; // hpa-nolint(HPA004): nothing here\n", ["HPA000"]),
    ("unregistered schema literal is flagged", "src/x/a.cc",
     'const char *S = "hpa.nosuch.v9";\n', ["HPA003", "HPA003"]),
    ("iostream in src is flagged", "src/x/a.cc",
     "#include <iostream>\n", ["HPA004"]),
    ("iostream in tools is clean", "tools/t.cc",
     "#include <iostream>\n", []),
    ("mutex in sweep engine is clean", "src/sim/sweep.cc",
     "#include <mutex>\n", []),
    ("mutex in core is flagged", "src/core/fu_pool.cc",
     "#include <mutex>\n", ["HPA004"]),
    ("unregistered stat member is flagged", "src/x/a.hh",
     'stats::Counter bogus{"x", "y"};\n', ["HPA005"]),
    ("undocumented policy key is flagged",
     "src/core/policy_registry.cc",
     '        {"zzz-policy", "/zzz", WakeupModel::Conventional,\n'
     '         "test entry"},\n', ["HPA006"]),
    ("documented policy key is clean",
     {"src/core/policy_registry.cc":
      '        {"zzz-policy", "/zzz", WakeupModel::Conventional,\n'
      '         "test entry"},\n',
      "EXPERIMENTS.md": "The `zzz-policy` scheduler.\n"},
     None, []),
    ("chrono in src is flagged", "src/x/a.cc",
     "#include <chrono>\n", ["HPA007"]),
    ("multi-line chrono statement coalesces to one finding",
     "src/x/a.cc",
     "auto a = std::chrono::steady_clock::now();\n"
     "auto b = std::chrono::steady_clock::now();\n", ["HPA007"]),
    ("rand in src is flagged", "src/x/a.cc",
     "int f() { return rand(); }\n", ["HPA007"]),
    ("chrono in tools is clean", "tools/t.cc",
     "#include <chrono>\n", []),
    ("identifier containing time is clean", "src/x/a.cc",
     "int arrival_time(int x) { return x; }\n"
     "int g() { return arrival_time(3); }\n", []),
    ("suppressed chrono with reason is clean", "src/sim/sweep.cc",
     "#include <chrono> "
     "// hpa-nolint(HPA007): host wall time, not simulated state\n",
     []),
    ("unordered iteration in sim core is flagged", "src/func/m.hh",
     "std::unordered_map<int, int> pages;\n"
     "int f() { int s = 0;"
     " for (auto &kv : pages) s += kv.second; return s; }\n",
     ["HPA007"]),
    ("unordered lookup without iteration is clean", "src/func/m.hh",
     "std::unordered_map<int, int> pages;\n"
     "int f(int k) { return pages.count(k); }\n", []),
    ("unordered iteration outside the sim core is clean",
     "src/sim/j.hh",
     "std::unordered_map<int, int> jobs;\n"
     "int f() { int s = 0;"
     " for (auto &kv : jobs) s += kv.second; return s; }\n", []),
    ("prove-allow with unknown property is flagged", "src/x/a.cc",
     "int x; // hpa-prove-allow(P9): nope\n", ["HPA000"]),
    ("prove-allow without reason is flagged", "src/x/a.cc",
     "int x; // hpa-prove-allow(P1)\n", ["HPA000"]),
    ("well-formed prove-allow is clean", "src/x/a.cc",
     "int x; // hpa-prove-allow(P1): warm-up only, proven quiescent\n",
     []),
]


def self_test():
    import tempfile

    failures = []
    for desc, relpath, source, expected in SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            # A case is one (relpath, source) file, or a dict of
            # several when a rule spans files (HPA006's doc lookup).
            files = (relpath if isinstance(relpath, dict)
                     else {relpath: source})
            for rel, text in files.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            run = LintRun(tmp)
            got = sorted(f.rule for f in run.run()
                         if f.rule != "HPA003" or "nosuch" in f.message)
            want = sorted(e for e in expected if not e.endswith("-absent"))
            if got != want:
                failures.append("%s: expected %s, got %s [%s]"
                                % (desc, want, got,
                                   "; ".join(f.message
                                             for f in run.findings)))
    # --changed-only equivalence: a filtered run reports exactly the
    # full scan's findings on the changed files (the scan itself is
    # never narrowed, so cross-file rules keep their context).
    import contextlib
    import io
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            "src/x/a.cc":
                'void f() { throw std::runtime_error("a"); }\n',
            "src/x/b.cc":
                'void g() { throw std::runtime_error("b"); }\n'
                "#include <iostream>\n",
        }
        for rel, text in files.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        clist = os.path.join(tmp, "changed.txt")
        with open(clist, "w", encoding="utf-8") as fh:
            fh.write("src/x/b.cc\n")
        full_json = os.path.join(tmp, "full.json")
        part_json = os.path.join(tmp, "part.json")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["--root", tmp, "--json", full_json])
            main(["--root", tmp, "--changed-list", clist,
                  "--json", part_json])
        with open(full_json, encoding="utf-8") as fh:
            full = json.load(fh)
        with open(part_json, encoding="utf-8") as fh:
            part = json.load(fh)
        want = [f for f in full["findings"]
                if f["file"] == "src/x/b.cc"]
        if not want:
            failures.append("changed-only: expected findings in "
                            "src/x/b.cc, full scan found none")
        if part["findings"] != want:
            failures.append(
                "changed-only: filtered findings %r != full-scan "
                "findings on the changed files %r"
                % (part["findings"], want))
        if not part["changed_only"] or full["changed_only"]:
            failures.append("changed-only: JSON flag wrong")

    # The taxonomy list must stay in sync with src/sim/error.hh.
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    err_hh = os.path.join(repo, "src", "sim", "error.hh")
    if os.path.exists(err_hh):
        with open(err_hh, encoding="utf-8") as fh:
            text = fh.read()
        for cls in ("ConfigError", "WorkloadError", "InvariantViolation",
                    "Deadlock"):
            if ("class %s" % cls) not in text:
                failures.append(
                    "taxonomy drift: %s not found in src/sim/error.hh"
                    % cls)
    if failures:
        for msg in failures:
            print("SELF-TEST FAIL: %s" % msg)
        return 1
    print("self-test OK: %d cases" % len(SELF_TEST_CASES))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="project-specific static analysis for the HPA "
                    "simulator")
    ap.add_argument("--root", default=".",
                    help="repository root to scan (default: cwd)")
    ap.add_argument("--json", metavar="FILE",
                    help="write an %s document ('-' = stdout)"
                         % LINT_SCHEMA)
    ap.add_argument("--changed-only", action="store_true",
                    help="report findings only for files git "
                         "considers changed (working tree + index + "
                         "untracked); the scan still covers the "
                         "whole tree so cross-file rules keep their "
                         "context")
    ap.add_argument("--changed-list", metavar="FILE",
                    help="like --changed-only but read the changed "
                         "file list (one repo-relative path per "
                         "line) from FILE instead of git; used by "
                         "the self-test")
    ap.add_argument("--rules", action="store_true",
                    help="list rule ids and descriptions, then exit")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter's built-in unit checks")
    args = ap.parse_args(argv)

    if args.rules:
        for rid, desc in sorted(RULES.items()):
            print("%s  %s" % (rid, desc))
        return 0
    if args.self_test:
        return self_test()

    if not os.path.isdir(args.root):
        print("error: no such directory: %s" % args.root,
              file=sys.stderr)
        return 2

    changed = None
    if args.changed_list:
        with open(args.changed_list, encoding="utf-8") as fh:
            changed = {l.strip() for l in fh if l.strip()}
    elif args.changed_only:
        changed = changed_files(args.root)
        if changed is None:
            print("error: --changed-only needs git and a repository "
                  "at %s" % args.root, file=sys.stderr)
            return 2

    run = LintRun(args.root)
    findings = run.run()
    if changed is not None:
        run.findings = [f for f in run.findings if f.path in changed]
        findings = run.findings

    if args.json:
        doc = json.dumps(to_json(run, changed is not None),
                         indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(doc)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(doc)

    if args.json != "-":
        for f in findings:
            print("%s:%d: %s: %s" % (f.path, f.line, f.rule, f.message))
        print("hpa-lint: %d file(s), %d finding(s), %d suppressed"
              % (len(run.files), len(findings), run.suppressed))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
