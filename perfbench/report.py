"""Every metric of every workload in one table, with the correctness checks.

    python3 perfbench/report.py --seed 1 [--seconds 1]

For each workload this runs the untraced passes (end-to-end metrics, as
``run.py --trace 0``) and the traced passes (per-layer metrics, as
``run.py --trace 1``), then prints:

- the end-to-end metrics with units, plus ``failed_frac`` and
  ``bounded_miss_frac`` ("n/a" where a workload has no such queries);
- the per-layer metrics;
- the tracing overhead (median traced minus median untraced ``wall_s`` of
  a pass) and the share of the traced time that layer spans cover.
"""

from __future__ import annotations

import argparse
import os
import sys

import run
from rep import PER_LAYER

WORKLOADS = ("chains", "crosscheck", "proofs")


def fmt(value) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


def table(title: str, rows: list[tuple[str, str, list]]) -> None:
    print(f"\n{title}")
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in WORKLOADS))
    for name, unit, values in rows:
        print(f"{name:36s} {unit:6s} " + " ".join(f"{fmt(v):>12s}" for v in values))


def main() -> int:
    ap = argparse.ArgumentParser(description="Print every benchmark metric for every workload.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0, help="measuring time per workload and mode")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "supercut", "__init__.py")):
        print("run from the root of a checkout: src/supercut is missing", file=sys.stderr)
        return 2
    plain = {w: run.measure(w, args.seed, args.seconds, trace=False) for w in WORKLOADS}
    traced = {w: run.measure(w, args.seed, args.seconds, trace=True) for w in WORKLOADS}

    rows = [(k, unit, [plain[w]["metrics"][k]["value"] for w in WORKLOADS]) for k, unit in run.END_TO_END.items()]
    rows.append(("failed_frac", "ratio", [plain[w]["failed"] / plain[w]["attempted"] for w in WORKLOADS]))
    misses = []
    for w in WORKLOADS:
        d = plain[w]["detail"]
        misses.append(d["bounded_misses"] / d["bounded_valid"] if d["bounded_valid"] else "n/a")
    rows.append(("bounded_miss_frac", "ratio", misses))
    rows.append(("attempted", "count", [plain[w]["attempted"] for w in WORKLOADS]))
    rows.append(("correct", "", [str(plain[w]["correct"] and traced[w]["correct"]) for w in WORKLOADS]))
    table(f"end to end (seed {args.seed}, untraced)", rows)

    rows = [(k, unit, [traced[w]["metrics"][k]["value"] for w in WORKLOADS]) for k, unit in PER_LAYER.items()]
    overhead = [traced[w]["metrics"]["bench.traced_wall_s"]["value"] - plain[w]["detail"]["pass_wall_s"]
                for w in WORKLOADS]
    rows.append(("bench.trace_overhead_s", "s", overhead))
    table(f"per layer (seed {args.seed}, traced)", rows)

    for w in WORKLOADS:
        for kind, res in (("untraced", plain[w]), ("traced", traced[w])):
            d = res["detail"]
            fails = ", ".join(f"{i} ({k})" for i, k in d["failed_items"]) or "none"
            print(f"\n{w} {kind}: {d['passes']} passes, failed: {fails}")
            for item, why in d["wrong"]:
                print(f"  WRONG {item}: {why}")
    return 0 if all(plain[w]["correct"] and traced[w]["correct"] for w in WORKLOADS) else 1


if __name__ == "__main__":
    sys.exit(main())
