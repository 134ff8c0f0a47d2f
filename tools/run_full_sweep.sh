#!/usr/bin/env bash
# Build the simulator, run the full reproduction sweep (every paper
# machine x every benchmark) once serially and once on the thread
# pool, and check the resulting IPC matrix against the checked-in
# golden ("hpa.sweep-golden.v1"; any drift is reported per cell as
# machine, workload, expected and got). Writes BENCH_sweep.json
# ("hpa.bench-sweep.v4": per-run status/IPC, wall time, simulated-
# cycles/sec, and the measured serial-to-parallel speedup) in the
# repo root — the canonical committed artifact — then validates both
# documents with hpa_json_validate and diffs the regenerated sweep
# against the committed baseline with compare_bench.py
# --max-regress 10 (a hard gate at the default budget).
#
# Usage: tools/run_full_sweep.sh
#   HPA_INSTS  committed-instruction budget per run (default 50000 —
#              the budget the golden was recorded at; other values
#              skip the golden comparison and the perf gate)
#   HPA_JOBS   worker threads for the parallel pass (default: one
#              per hardware thread)
#
# To refresh the golden after an intentional model change:
#   ./build/tools/hpa_bench_sweep --insts 50000 \
#       --write-golden tools/golden_sweep_ipc.json
set -euo pipefail
cd "$(dirname "$0")/.."

INSTS="${HPA_INSTS:-50000}"
JOBS="${HPA_JOBS:-0}"
GOLDEN=tools/golden_sweep_ipc.json

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j"$(nproc)" --target hpa_bench_sweep \
    --target hpa_json_validate

CHECK=(--check "$GOLDEN")
if [ "$INSTS" != 50000 ]; then
    echo "note: HPA_INSTS=$INSTS differs from the golden budget" \
         "(50000); skipping the golden comparison"
    CHECK=()
fi

# Snapshot the committed baseline before the sweep overwrites it, so
# the perf gate below compares old-vs-new rather than new-vs-new.
BASELINE=$(mktemp)
trap 'rm -f "$BASELINE"' EXIT
HAVE_BASELINE=0
if git show HEAD:BENCH_sweep.json > "$BASELINE" 2>/dev/null; then
    HAVE_BASELINE=1
fi

./build/tools/hpa_bench_sweep --insts "$INSTS" --jobs "$JOBS" \
    --out BENCH_sweep.json "${CHECK[@]}"

./build/tools/hpa_json_validate --schema hpa.sweep-golden.v1 "$GOLDEN"
./build/tools/hpa_json_validate --schema hpa.bench-sweep.v4 \
    BENCH_sweep.json

if [ "$HAVE_BASELINE" = 1 ] && [ "$INSTS" = 50000 ]; then
    python3 tools/compare_bench.py "$BASELINE" BENCH_sweep.json \
        --max-regress 10
else
    echo "note: no committed BENCH_sweep.json baseline (or non-" \
         "default budget); skipping the perf regression gate"
fi

echo "full sweep OK: BENCH_sweep.json written"
