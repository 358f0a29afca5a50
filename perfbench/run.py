"""Benchmark entry point: one workload, one seed, medians over cold passes.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 60 --trace 0

Run from the root of a checkout holding ``src/supercut``. The corpus is
generated from the seed in its own interpreter. Then a fresh interpreter
(``rep.py``) runs one cold pass over it, again and again while another pass
still fits in ``--seconds``; one caller, one query at a time, no threads.
Set-up is also timed in further interpreters that only set up.

The last line of standard output is the result, a JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of traced passes (spans go to ``.bench_build/perfbench/``).
Per-query latencies are each query's fastest pass; other metrics are
medians over passes. ``attempted`` is the corpus size and ``failed`` the
queries that failed in any pass; ``correct`` is false when any pass
returned a result its reference rejects, and then the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from rep import PER_LAYER, latency_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
MAX_PASSES = 24
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "completed": "count",
}


def _child(args: list[str], stdin: str | None = None) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def generate(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "corpus.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"corpus generation failed: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the corpus, run cold passes for about ``seconds`` and
    aggregate them; returns the result object without printing it."""
    corpus = generate(workload, seed)
    rep = os.path.join(HERE, "rep.py")
    setups = [_child([rep, "--workload", workload, "--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES)]
    args = [rep, "--workload", workload, "--trace", str(int(trace))]
    passes: list[dict] = []
    t0 = time.perf_counter()
    while len(passes) < MAX_PASSES:
        # a query that hit the limit would hit it again: later passes skip it
        hung = ",".join(i for i, kind in passes[0]["failed"] if kind == "timeout") if passes else ""
        passes.append(_child(args + ["--skip", hung], stdin=corpus))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    return aggregate(passes, setups, trace)


def aggregate(passes: list[dict], setups: list[float], trace: bool) -> dict:
    """Medians over passes; per-query latency is the query's fastest pass,
    since contention on the machine only ever adds time."""
    failed = {i: kind for p in passes for i, kind in p["failed"]}
    if trace:
        metrics = {n: {"value": statistics.median(p["layers"][n] for p in passes), "unit": unit}
                   for n, unit in PER_LAYER.items()}
    else:
        fastest = [None if i in failed else min(lat) for i, *lat in zip(passes[0]["ids"], *(p["latencies"] for p in passes))]
        values = {"setup_s": statistics.median(setups + [p["setup_s"] for p in passes])}
        values.update(latency_metrics(fastest))
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": len(passes[0]["ids"]),
        "failed": len(failed),
        "metrics": metrics,
        "detail": {
            "passes": len(passes),
            "failed_items": sorted(failed.items()),
            "wrong": [w for p in passes for w in p["wrong"]],
            "digests": sorted({p["digest"] for p in passes}),
            "bounded_valid": passes[0]["bounded_valid"],
            "bounded_misses": passes[0]["bounded_misses"],
            "refusals": passes[0]["refusals"],
            "pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=("chains", "crosscheck", "proofs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "supercut", "__init__.py")):
        print("run from the root of a checkout: src/supercut is missing", file=sys.stderr)
        return 2
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = res.pop("detail")
    fails = ", ".join(f"{i} ({k})" for i, k in detail["failed_items"]) or "none"
    print(f"# {args.workload} seed {args.seed}: {detail['passes']} cold passes, "
          f"{res['attempted']} queries each, correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(f"#   failed_frac = {res['failed'] / res['attempted']:.4f} ({res['failed']}/{res['attempted']}): {fails}")
    if detail["bounded_valid"]:
        frac = detail["bounded_misses"] / detail["bounded_valid"]
        print(f"#   bounded_miss_frac = {frac:.4f} ({detail['bounded_misses']}/{detail['bounded_valid']})")
    for item, why in detail["wrong"]:
        print(f"#   WRONG {item}: {why}")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
