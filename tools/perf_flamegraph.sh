#!/usr/bin/env bash
# Profile the simulator hot path and produce something a human can
# read: a folded-stack file suitable for flamegraph.pl when `perf`
# is available, else a gprof flat+call-graph profile from a -pg
# build. Degrades gracefully — many dev containers (including the
# reference VM) ship no `perf` binary, and gprof still answers "what
# does a simulated cycle spend its time on".
#
# Usage: tools/perf_flamegraph.sh [-- <hpa_bench_sweep args>]
#   HPA_PROFILE_DIR   output dir (default: profile/); the profiling
#                     build goes to its build/ subdirectory, so the
#                     checkout's own build trees are never touched
#   default workload: hpa_bench_sweep --insts 50000
#
# Outputs, depending on tooling:
#   perf path:  profile/perf.data, profile/folded.txt
#               (feed folded.txt to flamegraph.pl for the SVG)
#   gprof path: profile/gprof.txt (flat profile + call graph)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${HPA_PROFILE_DIR:-profile}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
BUILD="$OUT/build"

ARGS=(--insts 50000)
if [ "${1:-}" = "--" ]; then
    shift
    ARGS=("$@")
fi

if command -v perf >/dev/null 2>&1; then
    echo "== perf found: sampling with call graphs =="
    cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD" -j"$(nproc)" --target hpa_bench_sweep
    # Run from $OUT so the sweep's own artifact lands there too.
    (cd "$OUT" && perf record -g --output "$OUT/perf.data" -- \
        "$BUILD/tools/hpa_bench_sweep" "${ARGS[@]}")
    perf script --input "$OUT/perf.data" \
        | awk '
            # Minimal stack folding: collapse each sample stack into
            # one semicolon-joined line so flamegraph.pl can render
            # it without the stackcollapse-perf.pl helper.
            /^\S/ { if (stack != "") print stack; stack = ""; next }
            /^\s/ { n = split($0, f, " ");
                    frame = f[2];
                    stack = (stack == "" ? frame : frame ";" stack) }
            END   { if (stack != "") print stack }
        ' | sort | uniq -c | sort -rn \
        | awk '{ cnt = $1; $1 = ""; sub(/^ /, ""); print $0, cnt }' \
        > "$OUT/folded.txt"
    echo "wrote $OUT/folded.txt ($(wc -l < "$OUT/folded.txt") stacks)"
    echo "render: flamegraph.pl $OUT/folded.txt > $OUT/flame.svg"
elif command -v gprof >/dev/null 2>&1; then
    echo "== no perf; falling back to gprof (-pg build) =="
    cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg"
    cmake --build "$BUILD" -j"$(nproc)" --target hpa_bench_sweep
    # gmon.out and the sweep's artifact land in the CWD of the run.
    BIN="$BUILD/tools/hpa_bench_sweep"
    (cd "$OUT" && "$BIN" "${ARGS[@]}")
    gprof "$BIN" "$OUT/gmon.out" > "$OUT/gprof.txt"
    echo "wrote $OUT/gprof.txt (flat profile + call graph)"
else
    # Exit 77 — the conventional "skip" status — so the ctest
    # wrapper (SKIP_RETURN_CODE 77) reports SKIP, not FAIL, on
    # containers that ship neither profiler.
    echo "skip: neither perf nor gprof is available" >&2
    exit 77
fi
