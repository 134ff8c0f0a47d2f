#!/usr/bin/env python3
"""hpa-prove: binary-truth hot-path prover for the HPA simulator.

The repo's central performance claims — zero steady-state allocation
in Core::tick, no unwind paths or indirect calls inside the bitmask
scheduler or any wakeup/register-file scheme — are also checked at
run time by the operator-new counter (tests/test_hotpath_alloc.cc),
which sees only what the workloads happened to execute and nothing
of what the optimizer actually emitted. This tool closes the gap: it ingests compiler-emitted ground
truth, builds the whole-program call graph transitively reachable
from the hot-path roots, and proves four properties with named
violation paths.

Ground truth: per-TU VCG call graphs from GCC `-fcallgraph-info=su,da`
(.ci files) plus `-fstack-usage` (.su files), which every CMake build
emits when the compiler supports them. These are emitted AFTER
optimization: an inlined call has no edge, a devirtualized call is
direct, so the graph is exactly what the machine executes. A build
tree without .ci files (a non-GCC toolchain) cannot be analyzed: the
tool exits 77 and says why.

Roots: Core::tick (the per-cycle pipeline) and Core::tickGuards
(the rare-but-every-cycle guard hooks). Because every
scheduler/register-file policy is compiled into one Core (it branches
on its CoreConfig), a single static reachability pass covers every
registered policy combination: any code any combination could run on
the hot path is reachable from these roots.

Properties (each reports named root->...->symbol violation paths):

  P1 no-alloc      no reachable operator new/new[]/malloc family
                   symbol. std::vector amortized-growth helpers are
                   recognized as a class and excluded with a reason:
                   their quiescence at steady state is proven
                   dynamically by tests/test_hotpath_alloc.cc (the
                   two checks cross-validate). Per-insert allocators
                   (map/unordered_map node inserts) are NOT excused:
                   each surviving site needs an explicit
                   hpa-prove-allow.
  P2 no-unwind     no reachable __cxa_throw / __cxa_rethrow /
                   std::__throw_* edge, except through the
                   whitelisted guard functions (tickGuards, the
                   HPA_CHECK failure helper
                   hpa::detail::invariantFailed, cross-validation).
                   _Unwind_Resume landing pads are the RECEIVER side
                   of propagation — every originating throw is
                   already flagged at its source — so they are
                   counted (cleanup_landing_pads), not violated.
  P3 no-indirect   no indirect or virtual call site in the hot
                   graph — the compiled proof of the bit-plane
                   scheduler's inlining claims, for every policy.
  P4 stack-bound   the worst-case static stack depth along any hot
                   path stays under --stack-limit bytes, and the hot
                   graph is recursion-free (a cycle makes the static
                   bound meaningless and is itself a violation).

Suppressions: `// hpa-prove-allow(P1): reason` on the offending call
site's line (or alone on the line directly above) excuses edges at
that callsite for the named properties; the excused edge is CUT from
the traversal, so the subtree reachable only through it is excused
with it. When inlining leaves only libstdc++-header callsites (a
rehash, vector growth guts, std::function dispatch), place the allow
directly above the calling function's DEFINITION instead: a
function-level allow excuses that function's edges into non-repo
code while its calls into repo code stay fully checked. HPA_CHECK
failure arms are excused automatically (edges sharing a callsite
with a whitelisted guard call, and string machinery in guard-calling
functions) and surface as failure_arm_edges counts. The reason is
mandatory; hpa_lint's HPA000 rule enforces the comment hygiene
(known property ids, reason present), and this tool reports allows
that matched nothing as stale_allows so they can be cleaned up.

Output: human-readable proof report (default) or a machine-readable
hpa.prove.v1 JSON document (--json FILE, '-' = stdout), schema-gated
in ctest by hpa_json_validate. Exit codes: 0 = all properties
proved, 1 = violations, 2 = usage error, 77 = the toolchain or build
tree cannot support the analysis (ctest turns 77 into SKIP).

Standard library only, by design (like hpa_lint); the self-test
invokes the C++ compiler via subprocess.
"""

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys

PROVE_SCHEMA = "hpa.prove.v1"

# --------------------------------------------------------------------
# Configuration: roots, per-property pruning, symbol classifiers.
# --------------------------------------------------------------------

# Hot-path roots, matched as demangled-name substrings (clone
# suffixes like [clone .part.0] still match). `required` roots must
# exist in the graph or the proof is refused; optional roots may be
# fully inlined away, in which case their body's calls are
# attributed to the inlining caller and covered through the other
# roots.
ROOTS = [
    ("tick", "hpa::core::Core::tick(", True),
    ("tickGuards", "hpa::core::Core::tickGuards(", False),
]

# Cold subtrees excluded from the graph for EVERY property, each
# with the reason shown in the JSON document. These are failure
# paths: they run at most once per run (they raise) or on a gated
# cadence (cross-validation), and they are allowed to allocate,
# throw and build ostream dumps.
PRUNE_GUARDS = [
    ("hpa::detail::invariantFailed(",
     "HPA_CHECK failure helper: [[noreturn]], throws "
     "InvariantViolation"),
    ("hpa::core::Core::crossValidate(",
     "periodic cross-validation pass: cold cadence, throws on "
     "divergence"),
    ("hpa::core::Core::invariantContext(",
     "failure-context builder: runs only while an error is being "
     "raised"),
    ("hpa::core::Core::dumpPipelineState(",
     "failure dump builder: runs only while an error is being "
     "raised"),
    ("hpa::core::Core::sideListDivergence(",
     "cross-validation helper: re-derives scheduler lists off the "
     "hot path"),
    ("hpa::core::Core::readyListConsistent(",
     "test/cross-validation helper, O(window), never on the hot "
     "path"),
]

# Pruned ONLY for P1/P2: tickGuards throws by design (it IS the P2
# whitelist) and its failure arms build error strings, but it is a
# root for P3/P4 — even the guard hook must stay devirtualized and
# stack-bounded.
PRUNE_STEADY = [
    ("hpa::core::Core::tickGuards(",
     "guard hook: watchdog/cross-validation/fault checks, "
     "gated to a handful of compares per cycle; its failure arms "
     "throw by design (P1/P2 whitelist; still analyzed for P3/P4)"),
]

# std::vector amortized-growth helpers (P1 only): reaching one means
# "this container CAN grow", not "this allocates per operation".
# Growth is bounded by warm-up and proven quiescent at steady state
# by tests/test_hotpath_alloc.cc; the surviving per-insert allocation
# paths (node containers) still need explicit hpa-prove-allow.
AMORTIZED_GROWTH_MARKERS = [
    "_M_realloc_insert",
    "_M_realloc_append",
    "_M_default_append",
    "_M_fill_insert",
    "_M_range_insert",
    "_M_insert_aux",
    "_M_create_storage",
    "_M_allocate_and_copy",
]

ALLOC_NAMES = {
    "malloc", "calloc", "realloc", "aligned_alloc", "valloc",
    "posix_memalign", "strdup", "strndup",
}

THROW_NAMES = {
    "__cxa_throw", "__cxa_rethrow", "__cxa_allocate_exception",
    "_Unwind_RaiseException", "__cxa_bad_cast", "__cxa_bad_typeid",
}

# Landing pads are the RECEIVER side of exception propagation: a
# frame with nontrivial cleanup gets one as soon as any callee can
# throw. Every originating throw is flagged at its source, so
# counting pads as violations double-reports the same root cause;
# P2 reports their count honestly instead.
LANDING_PAD_NAMES = {"_Unwind_Resume", "__builtin_unwind_resume"}

# HPA_CHECK failure arms construct their message inline; after
# inlining, the std::string machinery they use is attributed to
# libstdc++ headers. A function that calls a whitelisted [[noreturn]]
# guard has those edges excused as failure-arm construction; string
# use in functions WITHOUT a guard call is still caught.
STRING_MACHINERY_RE = re.compile(
    r"basic_string|::to_string\(|char_traits")

INDIRECT_NODE = "__indirect_call"

PROPERTIES = {
    "P1": "no reachable allocation symbol on the steady-state hot "
          "path (operator new / new[] / malloc family)",
    "P2": "no reachable throw/unwind edge outside the whitelisted "
          "guard functions",
    "P3": "no indirect or virtual call site in the hot graph",
    "P4": "worst-case static stack depth bounded and recursion-free",
}

# Per-property traversal configuration. tickGuards is a root for P3
# and P4 (even the guards must stay devirtualized and stack-bounded)
# but is itself the P1/P2 whitelist: its body throws by design.
PROPERTY_ROOTS = {
    "P1": ("tick",),
    "P2": ("tick",),
    "P3": ("tick", "tickGuards"),
    "P4": ("tick", "tickGuards"),
}

DEFAULT_STACK_LIMIT = 16384

ALLOW_RE = re.compile(
    r"//\s*hpa-prove-allow\(([^)]*)\)\s*(?::\s*(.*\S))?\s*$")

SOURCE_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp")
SOURCE_DIRS = ("src", "tools", "tests", "examples")
FIXTURE_FILE = "tests/prove_fixture.cc"


# --------------------------------------------------------------------
# Call graph
# --------------------------------------------------------------------

class Node:
    __slots__ = ("sym", "demangled", "loc", "stack", "defined")

    def __init__(self, sym):
        self.sym = sym          # mangled (or plain C) symbol
        self.demangled = sym
        self.loc = ""           # "file:line" of the definition
        self.stack = None       # static stack bytes, if known
        self.defined = False    # body seen in some TU / object


class Graph:
    """Whole-program call graph merged across TUs/objects.

    Nodes are keyed by symbol name. Same-named local symbols from
    different TUs merge; the union over-approximates reachability,
    which is the conservative direction for proving absence.
    """

    def __init__(self):
        self.nodes = {}
        # (src, dst) -> set of "file:line" callsites ("" = unknown)
        self.edges = {}
        self.adj = {}

    def node(self, sym):
        n = self.nodes.get(sym)
        if n is None:
            n = self.nodes[sym] = Node(sym)
        return n

    def add_edge(self, src, dst, callsite=""):
        self.node(src)
        self.node(dst)
        self.edges.setdefault((src, dst), set()).add(callsite)
        self.adj.setdefault(src, set()).add(dst)

    def out_edges(self, sym):
        for dst in sorted(self.adj.get(sym, ())):
            yield dst, self.edges[(sym, dst)]


# --------------------------------------------------------------------
# VCG (.ci) parsing
# --------------------------------------------------------------------

VCG_NODE_RE = re.compile(
    r'node:\s*\{\s*title:\s*"((?:[^"\\]|\\.)*)"'
    r'\s*label:\s*"((?:[^"\\]|\\.)*)"'
    r'\s*(shape\s*:\s*ellipse)?')
VCG_EDGE_RE = re.compile(
    r'edge:\s*\{\s*sourcename:\s*"((?:[^"\\]|\\.)*)"'
    r'\s*targetname:\s*"((?:[^"\\]|\\.)*)"'
    r'(?:\s*label:\s*"((?:[^"\\]|\\.)*)")?')
STACK_LABEL_RE = re.compile(r"(\d+)\s+bytes")
LOC_RE = re.compile(r"^(.*):(\d+):\d+$")


def vcg_unescape(s):
    return (s.replace('\\"', '"').replace("\\\\", "\\"))


def trim_loc(label_loc):
    """'file:line:col' -> 'file:line' (the suppression key)."""
    m = LOC_RE.match(label_loc)
    return "%s:%s" % (m.group(1), m.group(2)) if m else label_loc


def parse_ci_file(graph, path, tu_index):
    """Merge one -fcallgraph-info VCG document into the graph."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    # The per-TU indirect-call placeholder must not merge across TUs
    # by accident of its fixed name: it carries no callees, so
    # merging is harmless — keep the shared name for classification.
    for m in VCG_NODE_RE.finditer(text):
        title = vcg_unescape(m.group(1))
        label = vcg_unescape(m.group(2))
        ellipse = bool(m.group(3))
        n = graph.node(title)
        parts = label.split("\\n")
        if title == INDIRECT_NODE:
            n.demangled = "(indirect call site)"
            continue
        if parts:
            n.demangled = parts[0]
        for p in parts[1:]:
            sm = STACK_LABEL_RE.search(p)
            if sm and "bytes" in p:
                n.stack = max(n.stack or 0, int(sm.group(1)))
            elif ":" in p and not n.loc:
                n.loc = trim_loc(p)
        if not ellipse:
            n.defined = True
    for m in VCG_EDGE_RE.finditer(text):
        src = vcg_unescape(m.group(1))
        dst = vcg_unescape(m.group(2))
        callsite = trim_loc(vcg_unescape(m.group(3) or ""))
        graph.add_edge(src, dst, callsite)
    return text.count("node:")


def parse_su_file(graph, path):
    """Merge -fstack-usage data: 'file:line:col:func\\tbytes\\tqual'.

    Matched into the graph by definition file:line — the .ci label
    usually carries the same number already; .su fills holes (and is
    the documented companion artifact)."""
    by_loc = {}
    for n in graph.nodes.values():
        if n.loc:
            by_loc.setdefault(n.loc, []).append(n)
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            cols = line.rstrip("\n").split("\t")
            if len(cols) < 3:
                continue
            m = re.match(r"^(.*):(\d+):\d+:", cols[0])
            if not m:
                continue
            try:
                bytes_ = int(cols[1])
            except ValueError:
                continue
            loc = "%s:%s" % (m.group(1), m.group(2))
            for n in by_loc.get(loc, ()):
                n.stack = max(n.stack or 0, bytes_)


def load_ci_graph(build_dir):
    """Find and merge all .ci/.su files under the build tree.

    Prefers the library subtree (build/src) so tool/test TUs don't
    bloat the graph; falls back to the whole tree."""
    for base in (os.path.join(build_dir, "src"), build_dir):
        ci = sorted(glob.glob(os.path.join(base, "**", "*.ci"),
                              recursive=True))
        if ci:
            break
    if not ci:
        return None, []
    graph = Graph()
    for i, path in enumerate(ci):
        parse_ci_file(graph, path, i)
    for path in sorted(glob.glob(os.path.join(base, "**", "*.su"),
                                 recursive=True)):
        parse_su_file(graph, path)
    return graph, ci


# --------------------------------------------------------------------
# Source suppression scan (hpa-prove-allow)
# --------------------------------------------------------------------

class Allow:
    __slots__ = ("file", "line", "props", "reason", "target", "used")

    def __init__(self, file, line, props, reason, target):
        self.file = file        # path relative to root
        self.line = line        # comment line
        self.props = props
        self.reason = reason
        self.target = target    # line whose edges it excuses
        self.used = False


def scan_allows(root_dir):
    allows = []
    for d in SOURCE_DIRS:
        top = os.path.join(root_dir, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(n for n in dirnames
                                 if not n.startswith(("build", ".")))
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name),
                                      root_dir).replace(os.sep, "/")
                with open(os.path.join(dirpath, name),
                          encoding="utf-8", errors="replace") as fh:
                    lines = fh.readlines()
                for idx, line in enumerate(lines, start=1):
                    m = ALLOW_RE.search(line)
                    if not m:
                        continue
                    props = [p.strip()
                             for p in m.group(1).split(",")
                             if p.strip()]
                    alone = line[:m.start()].strip() == ""
                    target = idx
                    if alone:
                        # The comment may wrap: the target is the
                        # first non-comment line below it.
                        target = idx + 1
                        while (target <= len(lines)
                               and lines[target - 1].lstrip()
                               .startswith("//")):
                            target += 1
                    allows.append(Allow(
                        rel, idx, props, m.group(2) or "", target))
    return allows


def allow_index(allows, root_dir):
    """(relfile, line, prop) -> Allow, for callsite lookup."""
    idx = {}
    for a in allows:
        for p in a.props:
            idx[(a.file, a.target, p)] = a
    return idx


def rel_callsite(callsite, root_dir):
    """Normalize a compiler callsite to (relpath, line) under root."""
    m = LOC_RE.match(callsite + ":0")
    # callsite is already "file:line"
    if ":" not in callsite:
        return None
    file, _, line = callsite.rpartition(":")
    try:
        lineno = int(line)
    except ValueError:
        return None
    path = os.path.normpath(os.path.join(root_dir, file)) \
        if not os.path.isabs(file) else os.path.normpath(file)
    root = os.path.normpath(os.path.abspath(root_dir))
    if path.startswith(root + os.sep):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        return rel, lineno
    return None


# --------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------

def is_alloc_symbol(node):
    s = node.sym
    if s.startswith("_Znw") or s.startswith("_Zna"):
        return True  # operator new / operator new[]
    if s in ALLOC_NAMES:
        return True
    # .ci labels carry the return type ("void* operator new(...)"),
    # demangler output does not — substring match covers both.
    return "operator new" in node.demangled


def is_throw_symbol(node):
    if node.sym in THROW_NAMES:
        return True
    return "std::__throw_" in node.demangled


def is_amortized_growth(node):
    d = node.demangled
    if "std::vector" not in d and "_M_" not in node.sym:
        return False
    return any(m in d or m in node.sym
               for m in AMORTIZED_GROWTH_MARKERS)


def find_roots(graph, root_specs):
    """name -> list of matching symbols (clones included)."""
    found = {name: [] for name, _, _ in root_specs}
    for sym, n in graph.nodes.items():
        if not n.defined:
            continue
        for name, pattern, _ in root_specs:
            if pattern in n.demangled:
                found[name].append(sym)
    return found


class PropertyResult:
    def __init__(self, pid, title):
        self.id = pid
        self.title = title
        self.status = "proved"   # proved | violated | skipped
        self.roots = []
        self.reachable = 0
        self.violations = []
        self.allowed = []
        self.pruned = []
        self.extra = {}


def reach(graph, roots, prune_syms, cuts=None, on_cut=None):
    """BFS; returns ({sym: parent}, order). Pruned nodes are walls:
    reachable as edge targets, never expanded. Cut edges (excused by
    an allow or a failure-arm rule) are not traversed, so an excused
    edge also excuses the subtree only reachable through it; each cut
    edge met from a live node is reported once via on_cut."""
    parents = {}
    order = []
    frontier = []
    for r in roots:
        if r not in parents:
            parents[r] = None
            frontier.append(r)
            order.append(r)
    while frontier:
        nxt = []
        for u in frontier:
            if u in prune_syms:
                continue
            for v in sorted(graph.adj.get(u, ())):
                if cuts and (u, v) in cuts:
                    if on_cut:
                        on_cut(u, v)
                    continue
                if v not in parents:
                    parents[v] = u
                    order.append(v)
                    nxt.append(v)
        frontier = nxt
    return parents, order


def path_to(parents, sym, graph):
    path = []
    cur = sym
    while cur is not None:
        path.append(graph.nodes[cur].demangled)
        cur = parents[cur]
    return list(reversed(path))


def prune_set(graph, patterns):
    """Symbols whose demangled name matches a prune pattern, with
    reasons, plus the amortized-growth class resolved separately."""
    pruned = []
    syms = set()
    for sym, n in graph.nodes.items():
        for pattern, reason in patterns:
            if pattern in n.demangled:
                pruned.append((sym, n.demangled, reason))
                syms.add(sym)
                break
    return syms, pruned


def build_cuts(graph, root_dir, aidx, pid, guard_like):
    """Edges excused for property `pid`, removed before traversal so
    an excused edge also excuses the subtree reachable only through
    it. Four sources, in precedence order:

      1. callsite allows — an hpa-prove-allow whose target line is
         one of the edge's callsites;
      2. function-level allows — when inlined std machinery leaves
         only libstdc++-header callsites (hashtable rehash, vector
         growth guts, std::function dispatch), no repo line can carry
         the allow; an allow directly above the CALLER's definition
         excuses that caller's edges into non-repo code (its edges to
         repo functions stay fully checked);
      3. failure-arm edges — an edge sharing its exact callsite with
         a call into a whitelisted guard is the inline construction
         of that guard's arguments (HPA_CHECK message building on the
         macro line);
      4. failure-arm strings — std::string machinery called from a
         function that itself calls a whitelisted guard: the nested
         inlining of rule 3's message building, attributed to
         basic_string.h instead of the macro line.

    Rules 3-4 are automatic (no comment) and surface as a count in
    the report; string use in guard-free functions is still flagged.
    """
    cuts = {}
    guard_sites = set()
    guard_callers = set()
    for (u, v), css in graph.edges.items():
        if v in guard_like:
            guard_callers.add(u)
            guard_sites.update(c for c in css if c)

    def repo_loc(loc):
        return rel_callsite(loc, root_dir) if loc else None

    for (u, v), css in graph.edges.items():
        if v in guard_like:
            continue  # already walls for this property
        nu, nv = graph.nodes[u], graph.nodes[v]
        allow = None
        for c in sorted(css):
            rc = rel_callsite(c, root_dir)
            if rc and (rc[0], rc[1], pid) in aidx:
                allow = aidx[(rc[0], rc[1], pid)]
                break
        if allow is None:
            uloc = repo_loc(nu.loc)
            if uloc and not repo_loc(nv.loc):
                # The compiler records the line of the function NAME;
                # a comment above a `ret\\nClass::name(...)` style
                # signature lands up to two lines higher.
                for off in (0, 1, 2):
                    a = aidx.get((uloc[0], uloc[1] - off, pid))
                    if a is not None:
                        allow = a
                        break
        if allow is not None:
            cuts[(u, v)] = (allow.reason, allow)
            continue
        if any(c in guard_sites for c in css if c):
            cuts[(u, v)] = (
                "failure-arm: shares its callsite with a call into a "
                "whitelisted guard (inline HPA_CHECK argument "
                "construction)", None)
        elif u in guard_callers and STRING_MACHINERY_RE.search(
                nv.demangled):
            cuts[(u, v)] = (
                "failure-arm string construction: std::string "
                "machinery in a function whose throw path is a "
                "whitelisted guard", None)
    return cuts


def check_edge_property(graph, parents, pid, classify, res,
                        prune_syms=frozenset(), cuts=None):
    """Shared engine for P1/P2/P3: scan out-edges of every reachable,
    unpruned node; classify(dst_node) -> violation kind or None.

    Pruned nodes appear in `parents` (they are reachable as walls)
    but their bodies are excused, so their out-edges are skipped, as
    are edges already cut by build_cuts."""
    for u in sorted(parents):
        if u in prune_syms or u not in graph.adj:
            continue
        nu = graph.nodes[u]
        for v, callsites in graph.out_edges(u):
            if cuts and (u, v) in cuts:
                continue
            nv = graph.nodes[v]
            kind = classify(nv)
            if not kind:
                continue
            res.violations.append({
                "symbol": nv.demangled,
                "raw_symbol": v,
                "caller": nu.demangled,
                "callsites": sorted(c for c in callsites if c),
                "kind": kind,
                "path": path_to(parents, u, graph)
                + [nv.demangled],
            })


def analyze_p4(graph, parents, prune_syms, stack_limit, res):
    """Worst-case stack depth over the pruned reachable graph, plus
    recursion detection. Unknown-stack nodes (external library
    functions) contribute 0 and are counted honestly."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {}
    best = {}      # sym -> (depth_from_here, next_sym)
    cycles = []
    unknown = set()

    reachable = [s for s in parents if s not in prune_syms]
    rset = set(reachable)

    def frame(sym):
        n = graph.nodes[sym]
        if n.stack is None:
            if n.defined:
                unknown.add(n.demangled)
            return 0
        return n.stack

    # Iterative DFS with cycle detection.
    for start in reachable:
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(sorted(graph.adj.get(start, ()))))]
        color[start] = GREY
        onstack = {start}
        while stack:
            sym, it = stack[-1]
            advanced = False
            for v in it:
                if v not in rset or v in prune_syms:
                    continue
                c = color.get(v, WHITE)
                if c == GREY:
                    cyc = [graph.nodes[s].demangled
                           for s, _ in stack[
                               [s for s, _ in stack].index(v):]]
                    cycles.append(cyc + [graph.nodes[v].demangled])
                    continue
                if c == WHITE:
                    color[v] = GREY
                    onstack.add(v)
                    stack.append(
                        (v, iter(sorted(graph.adj.get(v, ())))))
                    advanced = True
                    break
            if not advanced:
                d, nxt = 0, None
                for v in sorted(graph.adj.get(sym, ())):
                    if v not in rset or v in prune_syms:
                        continue
                    if color.get(v) == BLACK and v in best:
                        if best[v][0] > d:
                            d, nxt = best[v][0], v
                best[sym] = (d + frame(sym), nxt)
                color[sym] = BLACK
                onstack.discard(sym)
                stack.pop()

    worst, worst_root = 0, None
    for r in res.roots:
        if r in best and best[r][0] > worst:
            worst, worst_root = best[r][0], r
    worst_path = []
    cur = worst_root
    while cur is not None:
        worst_path.append({
            "function": graph.nodes[cur].demangled,
            "frame_bytes": graph.nodes[cur].stack or 0,
        })
        cur = best[cur][1] if cur in best else None

    res.extra = {
        "stack_limit": stack_limit,
        "worst_stack_bytes": worst,
        "worst_path": worst_path,
        "unknown_frame_functions": len(unknown),
        "recursion_cycles": cycles[:8],
    }
    for cyc in cycles:
        res.violations.append({
            "symbol": cyc[0],
            "kind": "recursion",
            "caller": cyc[-2] if len(cyc) > 1 else cyc[0],
            "callsites": [],
            "path": cyc,
        })
    if worst > stack_limit:
        res.violations.append({
            "symbol": worst_path[0]["function"] if worst_path else "",
            "kind": "stack-depth",
            "caller": "",
            "callsites": [],
            "path": [e["function"] for e in worst_path],
        })


def run_analysis(graph, root_dir, root_specs=None, prune_guards=None,
                 prune_steady=None, stack_limit=DEFAULT_STACK_LIMIT,
                 allows=None):
    """Run P1-P4 over a loaded graph. Returns (results, roots_report,
    stale_allows). `prune_guards` applies to every property;
    `prune_steady` only to P1/P2 (tickGuards: whitelisted there,
    analyzed for P3/P4)."""
    root_specs = root_specs if root_specs is not None else ROOTS
    prune_guards = (prune_guards if prune_guards is not None
                    else PRUNE_GUARDS)
    prune_steady = (prune_steady if prune_steady is not None
                    else PRUNE_STEADY)
    if allows is None:
        # The self-test fixture's allows belong to its private graph;
        # in a real-tree run they would always read as stale.
        allows = [a for a in scan_allows(root_dir)
                  if a.file != FIXTURE_FILE]
    aidx = allow_index(allows, root_dir)

    roots_found = find_roots(graph, root_specs)
    roots_report = []
    missing_required = []
    for name, pattern, required in root_specs:
        syms = roots_found[name]
        roots_report.append({
            "name": name,
            "pattern": pattern,
            "required": required,
            "found": bool(syms),
            "symbols": [graph.nodes[s].demangled for s in syms],
        })
        if required and not syms:
            missing_required.append(pattern)
    if missing_required:
        return None, roots_report, []

    guard_syms, guard_pruned = prune_set(graph, prune_guards)
    steady_syms, steady_pruned = prune_set(graph, prune_steady)

    growth_syms = {s for s, n in graph.nodes.items()
                   if is_amortized_growth(n)}

    results = []
    for pid in ("P1", "P2", "P3", "P4"):
        res = PropertyResult(pid, PROPERTIES[pid])
        res.roots = [s for name in PROPERTY_ROOTS[pid]
                     for s in roots_found.get(name, ())]
        if not res.roots:
            res.status = "skipped"
            res.extra["skip_reason"] = "no root symbols in graph"
            results.append(res)
            continue
        pruned = list(guard_pruned)
        pr_syms = set(guard_syms)
        if pid in ("P1", "P2"):
            pruned += steady_pruned
            pr_syms |= steady_syms
        if pid == "P1":
            # Growth helpers are walls for the alloc scan: reaching
            # one is recorded, its internal operator-new edge is not
            # a per-operation allocation.
            pr_syms |= growth_syms
        res.pruned = [{"symbol": d, "reason": r}
                      for _, d, r in pruned]
        if pid == "P4":
            # P4 runs uncut: excused edges still consume stack, so
            # the bound stays conservative.
            parents, order = reach(graph, res.roots, pr_syms)
            res.reachable = len(order)
            analyze_p4(graph, parents, pr_syms, stack_limit, res)
        else:
            guard_like = guard_syms | steady_syms
            cuts = build_cuts(graph, root_dir, aidx, pid, guard_like)

            def on_cut(u, v, _res=res, _cuts=cuts):
                reason, allow = _cuts[(u, v)]
                if allow is not None:
                    allow.used = True
                    _res.allowed.append({
                        "symbol": graph.nodes[v].demangled,
                        "caller": graph.nodes[u].demangled,
                        "callsite": "%s:%d"
                                    % (allow.file, allow.target),
                        "reason": reason,
                    })
                else:
                    _res.extra["failure_arm_edges"] = \
                        _res.extra.get("failure_arm_edges", 0) + 1

            parents, order = reach(graph, res.roots, pr_syms,
                                   cuts=cuts, on_cut=on_cut)
            res.reachable = len(order)
            if pid == "P1":
                res.extra["amortized_growth"] = sorted(
                    graph.nodes[s].demangled for s in growth_syms
                    if s in parents)
                classify = (lambda n:
                            "alloc" if is_alloc_symbol(n) else None)
            elif pid == "P2":
                pads = 0
                for u in parents:
                    if u in pr_syms:
                        continue
                    for v in graph.adj.get(u, ()):
                        if (v in LANDING_PAD_NAMES
                                and (u, v) not in cuts):
                            pads += 1
                res.extra["cleanup_landing_pads"] = pads
                classify = (lambda n:
                            "throw" if is_throw_symbol(n) else None)
            else:
                classify = (lambda n:
                            "indirect"
                            if n.sym.startswith(INDIRECT_NODE)
                            else None)
            check_edge_property(graph, parents, pid, classify, res,
                                prune_syms=pr_syms, cuts=cuts)
        if res.violations:
            res.status = "violated"
        results.append(res)

    stale = [a for a in allows if not a.used]
    return results, roots_report, stale


# --------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------

def registry_policies(root_dir):
    """Registered policy keys (same extraction as hpa_lint HPA006) —
    recorded in the JSON so the document names the combinations the
    static proof covers."""
    path = os.path.join(root_dir, "src", "core", "policy_registry.cc")
    keys = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                m = re.match(r'^\s*\{"([a-z0-9-]+)",', line)
                if m:
                    keys.append(m.group(1))
    return keys


def to_json(build_dir, inputs, graph, results, roots_report, stale,
            root_dir):
    ok = all(r.status != "violated" for r in results)
    return {
        "schema": PROVE_SCHEMA,
        "mode": "callgraph",
        "build_dir": os.path.abspath(build_dir),
        "inputs": len(inputs),
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "roots": roots_report,
        "policy_keys": registry_policies(root_dir),
        "coverage_note":
            "all registered sched/rf policies are compiled into Core "
            "(selected by its CoreConfig), so static reachability "
            "from the roots covers every combination",
        "properties": [
            {
                "id": r.id,
                "title": r.title,
                "status": r.status,
                "reachable": r.reachable,
                "violations": r.violations,
                "allowed": r.allowed,
                "pruned": r.pruned,
                **r.extra,
            }
            for r in results
        ],
        "stale_allows": [
            {"file": a.file, "line": a.line,
             "properties": a.props, "reason": a.reason}
            for a in stale
        ],
        "ok": ok,
    }


def print_report(doc, out=sys.stdout):
    w = out.write
    w("hpa-prove: mode=%s, %d inputs, %d nodes, %d edges\n"
      % (doc["mode"], doc["inputs"], doc["nodes"], doc["edges"]))
    for r in doc["roots"]:
        w("  root %-12s %s (%d symbol%s)\n"
          % (r["name"],
             "found" if r["found"] else "NOT FOUND",
             len(r["symbols"]), "" if len(r["symbols"]) == 1 else "s"))
    for p in doc["properties"]:
        w("%s %-4s %s\n"
          % ({"proved": "PASS", "violated": "FAIL",
              "skipped": "SKIP"}[p["status"]], p["id"], p["title"]))
        if p["id"] == "P4" and p["status"] != "skipped":
            w("       worst static stack: %d bytes (limit %d), "
              "%d external frame(s) unknown\n"
              % (p.get("worst_stack_bytes", 0),
                 p.get("stack_limit", 0),
                 p.get("unknown_frame_functions", 0)))
        for v in p["violations"]:
            w("       violation [%s] %s\n" % (v["kind"], v["symbol"]))
            for step in v["path"]:
                w("         -> %s\n" % step)
            for c in v.get("callsites", []):
                w("         at %s\n" % c)
        if p["allowed"]:
            w("       %d allowed site(s) (hpa-prove-allow)\n"
              % len(p["allowed"]))
    for a in doc["stale_allows"]:
        w("warning: stale hpa-prove-allow at %s:%d (%s) matched "
          "nothing\n" % (a["file"], a["line"],
                         ",".join(a["properties"])))
    w("hpa-prove: %s\n" % ("all properties proved"
                           if doc["ok"] else "VIOLATIONS FOUND"))


# --------------------------------------------------------------------
# Self test
# --------------------------------------------------------------------

FIXTURE_ROOTS = [
    ("tick", "provefix::FixCore::tick(", True),
    ("cleanTick", "provefix::FixCore::cleanTick(", False),
]
FIXTURE_PRUNE = [
    ("provefix::FixCore::guards(",
     "fixture guard subtree: its alloc/throw must NOT be flagged"),
]


def self_test(root_dir, keep=False):
    import tempfile

    fixture = os.path.join(root_dir, "tests", "prove_fixture.cc")
    if not os.path.exists(fixture):
        print("SKIP: fixture %s not found" % fixture)
        return 77
    cxx = os.environ.get("CXX", "c++")
    if not shutil.which(cxx):
        print("SKIP: no C++ compiler (%s) on PATH" % cxx)
        return 77

    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        obj = os.path.join(tmp, "prove_fixture.o")
        cg_cmd = [cxx, "-std=c++17", "-O2", "-g",
                  "-fcallgraph-info=su,da", "-fstack-usage",
                  "-c", fixture, "-o", obj]
        r = subprocess.run(cg_cmd, capture_output=True, text=True)
        if r.returncode != 0:
            plain = subprocess.run(
                [cxx, "-std=c++17", "-O2", "-c", fixture, "-o", obj],
                capture_output=True, text=True)
            if plain.returncode == 0:
                print("SKIP: %s does not support "
                      "-fcallgraph-info=su,da" % cxx)
                return 77
            print("SKIP: cannot compile fixture: %s"
                  % r.stderr.strip()[:400])
            return 77

        ci_files = glob.glob(os.path.join(tmp, "*.ci"))
        check(ci_files, "fixture produced no .ci file")
        graph = Graph()
        for path in ci_files:
            parse_ci_file(graph, path, 0)
        for path in glob.glob(os.path.join(tmp, "*.su")):
            parse_su_file(graph, path)

        # The fixture's allow comments live in the real tests/ tree.
        allows = [a for a in scan_allows(root_dir)
                  if a.file == "tests/prove_fixture.cc"]
        check(allows, "fixture allow comments not found by the scan")

        out = run_analysis(
            graph, root_dir, root_specs=FIXTURE_ROOTS,
            prune_guards=FIXTURE_PRUNE, stack_limit=4096,
            allows=allows)
        results, roots_report, stale = out
        check(results is not None, "fixture root tick not found")
        if results is not None:
            by_id = {r.id: r for r in results}

            p1 = by_id["P1"]
            check(p1.status == "violated", "P1 missed the fixture "
                  "allocation (status %s)" % p1.status)
            check(any("hotAlloc" in "".join(v["path"])
                      for v in p1.violations),
                  "P1 violation path does not name hotAlloc")
            check(not any("guardAlloc" in "".join(v["path"])
                          for v in p1.violations),
                  "P1 flagged the pruned guard subtree")
            check(len(p1.allowed) >= 1,
                  "P1 did not honor the hpa-prove-allow site")
            check(not any("allowedAlloc" in "".join(v["path"])
                          for v in p1.violations),
                  "P1 flagged the allowed site")
            check(not any("allowedDeep" in "".join(v["path"])
                          for v in p1.violations),
                  "P1 flagged the function-level allowed function")
            check(any("allowedDeep" in e["caller"]
                      for e in p1.allowed),
                  "P1 did not honor the function-level allow")

            p2 = by_id["P2"]
            check(p2.status == "violated",
                  "P2 missed the fixture throw")
            check(any("hotThrow" in "".join(v["path"])
                      for v in p2.violations),
                  "P2 violation path does not name hotThrow")

            p3 = by_id["P3"]
            check(p3.status == "violated",
                  "P3 missed the fixture indirect call")
            check(any("hotIndirect" in "".join(v["path"])
                      for v in p3.violations),
                  "P3 violation path does not name hotIndirect")

            p4 = by_id["P4"]
            check(p4.status == "violated",
                  "P4 missed the fixture stack hog / recursion")
            check(p4.extra.get("worst_stack_bytes", 0) > 4096,
                  "P4 worst stack %r not over the 4096 fixture limit"
                  % p4.extra.get("worst_stack_bytes"))
            check(any(v["kind"] == "recursion"
                      for v in p4.violations),
                  "P4 missed the fixture recursion cycle")

        # Clean root: a graph rooted only at cleanTick proves P1-P3.
        clean_roots = [("tick", "provefix::FixCore::cleanTick(",
                        True)]
        out2 = run_analysis(
            graph, root_dir, root_specs=clean_roots,
            prune_guards=FIXTURE_PRUNE, stack_limit=4096,
            allows=[])
        results2 = out2[0]
        check(results2 is not None, "cleanTick root not found")
        if results2 is not None:
            for r in results2:
                if r.id in ("P1", "P2", "P3"):
                    check(r.status == "proved",
                          "clean fixture root: %s unexpectedly %s "
                          "(%r)" % (r.id, r.status,
                                    [v["path"]
                                     for v in r.violations]))

    # Parser unit check on an embedded VCG snippet.
    g = Graph()
    import tempfile as _tf
    with _tf.NamedTemporaryFile("w", suffix=".ci", delete=False) as f:
        f.write(
            'graph: { title: "t.cc"\n'
            'node: { title: "_Z1fv" label: "int f()\\n'
            't.cc:3:5\\n24 bytes (static)\\n0 dynamic objects" }\n'
            'node: { title: "_Znwm" label: "operator new(unsigned'
            ' long)\\n/usr/include/new:126:26" shape : ellipse }\n'
            'edge: { sourcename: "_Z1fv" targetname: "_Znwm" '
            'label: "t.cc:4:11" }\n'
            '}\n')
        snippet = f.name
    try:
        parse_ci_file(g, snippet, 0)
        check(g.nodes["_Z1fv"].stack == 24,
              "VCG parser: stack bytes not read")
        check(g.nodes["_Z1fv"].demangled == "int f()",
              "VCG parser: demangled label not read")
        check(("_Z1fv", "_Znwm") in g.edges
              and "t.cc:4" in next(iter(g.edges[("_Z1fv", "_Znwm")])),
              "VCG parser: edge/callsite not read")
        check(not g.nodes["_Znwm"].defined,
              "VCG parser: ellipse node marked defined")
    finally:
        os.unlink(snippet)

    if failures:
        for msg in failures:
            print("SELF-TEST FAIL: %s" % msg)
        return 1
    print("self-test OK (callgraph + parser)")
    return 0


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def default_root():
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="whole-program hot-path prover over "
                    "compiler-emitted call graphs")
    ap.add_argument("--build-dir", default="build",
                    help="CMake build tree (default: build)")
    ap.add_argument("--root-dir", default=default_root(),
                    help="repository root (for hpa-prove-allow "
                         "scanning; default: the tree containing "
                         "this script)")
    ap.add_argument("--stack-limit", type=int,
                    default=DEFAULT_STACK_LIMIT,
                    help="P4 worst-case stack bound in bytes "
                         "(default %d)" % DEFAULT_STACK_LIMIT)
    ap.add_argument("--json", metavar="FILE",
                    help="write an %s document ('-' = stdout)"
                         % PROVE_SCHEMA)
    ap.add_argument("--self-test", action="store_true",
                    help="compile tests/prove_fixture.cc and verify "
                         "every property catches its violation")
    args = ap.parse_args(argv)
    # The fixture is compiled through this path and the compiler's
    # callsites are joined onto it: a relative root would be applied
    # twice.
    args.root_dir = os.path.abspath(args.root_dir)

    if args.self_test:
        return self_test(args.root_dir)

    graph, inputs = None, []
    if os.path.isdir(args.build_dir):
        graph, inputs = load_ci_graph(args.build_dir)
    if graph is None:
        print("SKIP: no .ci files under %s (build with a GCC "
              "that supports -fcallgraph-info)" % args.build_dir,
              file=sys.stderr)
        return 77

    results, roots_report, stale = run_analysis(
        graph, args.root_dir, stack_limit=args.stack_limit)
    if results is None:
        missing = [r["pattern"] for r in roots_report
                   if r["required"] and not r["found"]]
        print("SKIP: required root(s) not in the graph: %s (is this "
              "the right build tree?)" % ", ".join(missing),
              file=sys.stderr)
        return 77

    doc = to_json(args.build_dir, inputs, graph, results, roots_report,
                  stale, args.root_dir)

    if args.json:
        text = json.dumps(doc, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
    if args.json != "-":
        print_report(doc)
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
