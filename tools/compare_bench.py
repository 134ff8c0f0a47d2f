#!/usr/bin/env python3
"""Compare two throughput-benchmark JSON artifacts.

Diffs a baseline and a candidate BENCH_sweep.json
("hpa.bench-sweep.v2"/"v3"/"v4" — v3 only adds per-run policy names
and v4 only drops the scheduler-engine and batched-replay fields, so
all three are throughput-comparable) or micro_throughput --json
artifact ("hpa.micro-throughput.v1"/"v2"/"v3") and flags throughput
regressions:

  tools/compare_bench.py docs/runs/BENCH_sweep_before.json BENCH_sweep.json

A regression is a drop of more than --threshold (default 10%) in
aggregate_cycles_per_sec or in any individual run's cycles_per_sec.
Report-only by default — wall-clock numbers depend on the host, so
this is a review aid, not a merge gate; pass --strict to exit 1 on
any flagged regression, or --max-regress PCT to both set the
threshold and gate in one flag (e.g. `--max-regress 15` on a
dedicated perf CI host). `--self-test` runs the built-in unit checks
on synthetic artifacts.

Only uses the standard library; the artifacts are small and flat.
"""

import argparse
import json
import sys

KNOWN_SCHEMAS = (
    "hpa.bench-sweep.v2",
    "hpa.bench-sweep.v3",
    "hpa.bench-sweep.v4",
    "hpa.micro-throughput.v1",
    "hpa.micro-throughput.v2",
    "hpa.micro-throughput.v3",
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    schema = doc.get("schema", "<none>")
    if schema not in KNOWN_SCHEMAS:
        sys.exit(
            f"error: {path} has schema {schema!r}; expected one of "
            f"{', '.join(KNOWN_SCHEMAS)}"
        )
    return doc


def run_key(run):
    # bench-sweep runs are keyed by machine|workload; micro-throughput
    # runs by width|workload. Both identify a unique measurement.
    if "machine" in run:
        return f"{run['machine']}|{run['workload']}"
    return f"{run.get('width', '?')}-wide|{run['workload']}"


def pct(new, old):
    return 100.0 * (new - old) / old if old else float("nan")


def find_regressions(base, cand, threshold, out=sys.stdout):
    """Print the diff of two loaded artifacts and return the list of
    (key, delta_pct) regressions beyond threshold."""
    regressions = []

    agg_b = base.get("aggregate_cycles_per_sec")
    agg_c = cand.get("aggregate_cycles_per_sec")
    if agg_b and agg_c:
        delta = pct(agg_c, agg_b)
        marker = ""
        if delta < -threshold:
            marker = "  <-- REGRESSION"
            regressions.append(("aggregate", delta))
        print(
            f"aggregate cycles/sec: {agg_b:,.0f} -> {agg_c:,.0f} "
            f"({delta:+.1f}%){marker}",
            file=out,
        )

    base_runs = {run_key(r): r for r in base.get("runs", [])}
    cand_runs = {run_key(r): r for r in cand.get("runs", [])}
    for k in sorted(set(base_runs) - set(cand_runs)):
        print(f"only in baseline: {k}", file=out)
    for k in sorted(set(cand_runs) - set(base_runs)):
        print(f"only in candidate: {k}", file=out)

    shared = sorted(set(base_runs) & set(cand_runs))
    for k in shared:
        b, c = base_runs[k], cand_runs[k]
        cps_b = b.get("cycles_per_sec", 0)
        cps_c = c.get("cycles_per_sec", 0)
        if not cps_b or not cps_c:
            continue
        delta = pct(cps_c, cps_b)
        if delta < -threshold:
            regressions.append((k, delta))
            print(
                f"  {k}: {cps_b:,.0f} -> {cps_c:,.0f} cycles/sec "
                f"({delta:+.1f}%)  <-- REGRESSION",
                file=out,
            )

    print(
        f"{len(shared)} shared runs compared, "
        f"{len(regressions)} regression(s) beyond "
        f"{threshold:.0f}%",
        file=out,
    )
    return regressions


def self_test():
    import io

    def doc(agg, runs, schema="hpa.bench-sweep.v2"):
        return {
            "schema": schema,
            "aggregate_cycles_per_sec": agg,
            "runs": [
                {"machine": m, "workload": w, "cycles_per_sec": cps}
                for m, w, cps in runs
            ],
        }

    sink = io.StringIO()
    base = doc(1000.0, [("m1", "gzip", 100.0), ("m1", "gcc", 200.0)])

    # Identical artifacts: no regressions at any threshold.
    assert find_regressions(base, base, 0.5, sink) == []

    # A 20% per-run drop trips a 10% threshold but not a 30% one.
    slow = doc(1000.0, [("m1", "gzip", 80.0), ("m1", "gcc", 200.0)])
    regs = find_regressions(base, slow, 10.0, sink)
    assert [k for k, _ in regs] == ["m1|gzip"], regs
    assert find_regressions(base, slow, 30.0, sink) == []

    # Aggregate drops are keyed "aggregate".
    agg = doc(500.0, [("m1", "gzip", 100.0), ("m1", "gcc", 200.0)])
    assert [k for k, _ in find_regressions(base, agg, 10.0, sink)] \
        == ["aggregate"]

    # Improvements never count as regressions.
    fast = doc(2000.0, [("m1", "gzip", 300.0), ("m1", "gcc", 400.0)])
    assert find_regressions(base, fast, 10.0, sink) == []

    # Disjoint run sets are reported, not compared.
    other = doc(1000.0, [("m2", "gzip", 1.0)])
    assert find_regressions(base, other, 10.0, sink) == []

    # micro-throughput artifacts key on width|workload.
    assert run_key({"width": 4, "workload": "gzip"}) == "4-wide|gzip"
    assert run_key({"machine": "m1", "workload": "gcc"}) == "m1|gcc"

    # Every known schema loads, and the newest of each family diffs
    # against its predecessors (same family, same metrics).
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for schema in KNOWN_SCHEMAS:
            path = os.path.join(tmp, schema + ".json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc(1000.0, [], schema), f)
            assert load(path)["schema"] == schema
    v4 = doc(1000.0, [("m1", "gzip", 100.0)], "hpa.bench-sweep.v4")
    v3 = doc(1000.0, [("m1", "gzip", 80.0)], "hpa.bench-sweep.v3")
    assert [k for k, _ in find_regressions(v4, v3, 10.0, sink)] \
        == ["m1|gzip"]
    m3 = doc(1000.0, [("4-wide", "gzip", 100.0)],
             "hpa.micro-throughput.v3")
    m2 = doc(1000.0, [("4-wide", "gzip", 100.0)],
             "hpa.micro-throughput.v2")
    assert find_regressions(m2, m3, 10.0, sink) == []

    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="diff two throughput benchmark artifacts"
    )
    ap.add_argument("baseline", nargs="?", help="older artifact (JSON)")
    ap.add_argument("candidate", nargs="?", help="newer artifact (JSON)")
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression threshold in percent (default 10)",
    )
    ap.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any regression exceeds the threshold",
    )
    ap.add_argument(
        "--max-regress",
        type=float,
        metavar="PCT",
        help="gate mode: set the threshold to PCT and exit 1 on any "
        "regression beyond it (shorthand for --threshold PCT "
        "--strict)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in unit checks and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.candidate is None:
        ap.error("baseline and candidate artifacts are required")

    threshold = args.threshold
    gate = args.strict
    if args.max_regress is not None:
        threshold = args.max_regress
        gate = True

    base = load(args.baseline)
    cand = load(args.candidate)

    # Schemas must be the same *family*; versions within a family are
    # fine (they add or drop descriptive fields, the metrics are
    # unchanged).
    def family(doc):
        return doc.get("schema", "").rsplit(".", 1)[0]

    if family(base) != family(cand):
        sys.exit(
            f"error: schema mismatch: {base.get('schema')} vs "
            f"{cand.get('schema')}"
        )
    if base.get("insts_per_run") != cand.get("insts_per_run"):
        print(
            f"warning: different insts_per_run "
            f"({base.get('insts_per_run')} vs "
            f"{cand.get('insts_per_run')}); throughput numbers are "
            f"still comparable, wall times are not"
        )

    regressions = find_regressions(base, cand, threshold)
    if regressions and gate:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
