#!/usr/bin/env python3
"""Gate benchmark regressions against a committed baseline.

Compares a freshly produced BENCH_<name>.json against the baseline JSON
committed in the repo and fails (exit 1) when:

  * the gated field (--field, default ns_per_op; e.g. p50_ns for the
    fig7 latency rows) of any benchmark present in both files regresses by
    more than --threshold (default 10%), or is 0 or missing in the current
    run while positive in the baseline (a row that stopped measuring), or
  * allocs_per_record of any benchmark regresses by more than
    --alloc-slack (default 0.5 allocations/record).

Time-based thresholds are inherently noisy across machines; the allocation
counters are deterministic and are the primary signal for the zero-copy
data plane (DESIGN.md §12). Benchmarks present in only one file are
reported but never fail the check, so adding or retiring benchmarks does
not require touching the gate.

Usage:
  tools/check_bench_regression.py BASELINE.json CURRENT.json \
      [--threshold 0.10] [--field ns_per_op]
"""

import argparse
import json
import sys


def load_points(path):
    with open(path) as f:
        doc = json.load(f)
    points = {}
    for p in doc.get("points", []):
        points[p["name"]] = p
    return points


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed fractional increase of --field")
    ap.add_argument("--field", default="ns_per_op",
                    help="row field to gate (lower is better)")
    ap.add_argument("--alloc-slack", type=float, default=0.5,
                    help="max allowed allocs_per_record increase")
    args = ap.parse_args()

    base = load_points(args.baseline)
    cur = load_points(args.current)

    failures = []
    compared = 0
    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            print(f"  [skip] {name}: missing from current run")
            continue
        compared += 1
        b_val, c_val = b.get(args.field), c.get(args.field)
        if b_val and not c_val:
            # A row that measured something before and nothing now (no
            # outputs, so a 0 latency) has regressed, not improved.
            failures.append(f"{name}: {args.field} {b_val:.1f} -> {c_val} "
                            "(no measurement)")
            print(f"  [FAIL] {name}: {args.field} {b_val:.1f} -> {c_val}")
        elif b_val and c_val:
            ratio = c_val / b_val
            marker = "OK"
            if ratio > 1.0 + args.threshold:
                marker = "FAIL"
                failures.append(
                    f"{name}: {args.field} {b_val:.1f} -> {c_val:.1f} "
                    f"(+{(ratio - 1) * 100:.1f}% > {args.threshold * 100:.0f}%)")
            print(f"  [{marker}] {name}: {args.field} {b_val:.1f} -> "
                  f"{c_val:.1f} ({(ratio - 1) * 100:+.1f}%)")
        b_allocs = b.get("allocs_per_record")
        c_allocs = c.get("allocs_per_record")
        if b_allocs is not None and c_allocs is not None:
            if c_allocs > b_allocs + args.alloc_slack:
                failures.append(
                    f"{name}: allocs_per_record {b_allocs:.2f} -> "
                    f"{c_allocs:.2f} (slack {args.alloc_slack})")
                print(f"  [FAIL] {name}: allocs_per_record "
                      f"{b_allocs:.2f} -> {c_allocs:.2f}")
    for name in sorted(set(cur) - set(base)):
        print(f"  [new]  {name}: no baseline, skipping")

    if compared == 0:
        print("error: no common benchmarks between baseline and current",
              file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nno regressions across {compared} benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
