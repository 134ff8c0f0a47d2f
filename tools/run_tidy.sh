#!/usr/bin/env bash
# Run the repo's curated clang-tidy profile (.clang-tidy) over every
# project translation unit in a compile_commands.json database.
#
#   tools/run_tidy.sh [-p BUILD_DIR] [FILE...]
#
#   -p BUILD_DIR  build tree containing compile_commands.json
#                 (default: ./build; configure with
#                 -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
#   FILE...       restrict the run to these sources (default: every
#                 src/tools/examples/tests TU in the database)
#
# Exit codes: 0 clean, 1 findings, 2 usage/setup error, 77 skipped
# because no clang-tidy binary is installed (ctest's SKIP_RETURN_CODE,
# so the lint label stays green on containers without LLVM while CI
# images with clang-tidy enforce it).
set -u

build_dir=build
while getopts "p:h" opt; do
    case "$opt" in
        p) build_dir=$OPTARG ;;
        h) sed -n '2,16p' "$0"; exit 0 ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))

tidy=""
for cand in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
            clang-tidy-16 clang-tidy-15; do
    if command -v "$cand" > /dev/null 2>&1; then
        tidy=$cand
        break
    fi
done
if [ -z "$tidy" ]; then
    echo "run_tidy: no clang-tidy binary found; skipping (install" \
         "clang-tidy to enforce the .clang-tidy profile)" >&2
    exit 77
fi

db=$build_dir/compile_commands.json
if [ ! -f "$db" ]; then
    echo "run_tidy: $db not found; configure with" \
         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 2
fi

repo=$(cd "$(dirname "$0")/.." && pwd)

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    # Project TUs only: sources under the repo, not dependency or
    # generated code in the build tree.
    mapfile -t files < <(
        grep -o '"file": *"[^"]*"' "$db" | sed 's/.*"file": *"//;s/"$//' |
        grep "^$repo/" | grep -v "^$repo/build" | sort -u)
fi
if [ "${#files[@]}" -eq 0 ]; then
    echo "run_tidy: no project sources found in $db" >&2
    exit 2
fi

jobs=$(nproc 2> /dev/null || echo 2)
log=$(mktemp)
trap 'rm -f "$log"' EXIT

printf '%s\0' "${files[@]}" |
    xargs -0 -n 1 -P "$jobs" "$tidy" --quiet -p "$build_dir" \
        > "$log" 2> /dev/null
status=$?

cat "$log"
count=$(grep -c 'warning:\|error:' "$log" || true)
echo "run_tidy: $tidy over ${#files[@]} file(s): $count finding(s)"
if [ "$count" -ne 0 ] || [ "$status" -ne 0 ]; then
    exit 1
fi
exit 0
