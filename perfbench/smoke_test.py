#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny budget.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py with all
12 kernels on 2 machines (one per width) at a few thousand
instructions, and checks that:

- the last stdout line is the result object, with correct true;
- --trace 0 emits exactly the end_to_end metrics and --trace 1
  exactly the per_layer metrics, each with its declared unit;
- the canonical and held-out seeds agree exactly on every cell they
  share;
- perfbench/README.md maps every per-layer metric to the end-to-end
  metric and workload it should move.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 7)  # canonical, held-out
TINY = ["--insts", "3000", "--long-insts", "5000", "--machines", "2"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + TINY
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                             f"{p.stdout}{p.stderr}")
    return json.loads(lines[-1])


def cells(workload, seed):
    path = os.path.join(ROOT, ".bench_out",
                        f"{workload}-seed{seed}.cells.tsv")
    with open(path) as f:
        rows = [line.split("\t") for line in f.read().splitlines()[1:]]
    return {(r[0], r[1]): (r[2], r[3]) for r in rows}


def check_metrics(result, declared, what):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{what}: not correct ({result.get('failed')} "
                      f"of {result.get('attempted')} failed)")
    got = result.get("metrics", {})
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            errors.append(f"{what}: missing {m['name']}")
        elif v.get("unit") != m["unit"]:
            errors.append(f"{what}: {m['name']} unit {v.get('unit')}, "
                          f"declared {m['unit']}")
        elif not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            errors.append(f"{what}: {m['name']} value {v.get('value')}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        errors.append(f"{what}: undeclared {sorted(extra)}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "README.md")) as f:
        readme = f.read()

    errors = [f"README.md: no row for {m['name']}"
              for m in bench["per_layer"]
              if f"| `{m['name']}` |" not in readme]
    for w in (w["name"] for w in bench["workloads"]):
        errors += check_metrics(run(w, SEEDS[0], 0),
                                bench["end_to_end"], f"{w} trace 0")
        errors += check_metrics(run(w, SEEDS[0], 1),
                                bench["per_layer"], f"{w} trace 1")
        canonical = cells(w, SEEDS[0])
        run(w, SEEDS[1], 0)
        held_out = cells(w, SEEDS[1])
        common = canonical.keys() & held_out.keys()
        if not common:
            errors.append(f"{w}: the seeds share no cell")
        errors += [f"{w}: cell {k} differs across seeds"
                   for k in sorted(common) if canonical[k] != held_out[k]]
        print(f"{w}: {len(common)} common cells checked", flush=True)

    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
