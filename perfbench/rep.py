"""One cold pass over a workload's corpus, in a fresh interpreter.

Reads the corpus (JSON, from ``corpus.py``) on standard input and prints one
JSON object with the pass's measurements. ``run.py`` starts this once per
pass, so every module-level cache of ``supercut`` (``_designation_mask``,
``_binop_table``, ``_at_set_default``, ``expansion_pool``,
``_balanced_expansions_cached``) starts empty and only set-up warms it.

    python3 perfbench/rep.py --workload crosscheck --trace 0 < corpus.json
    python3 perfbench/rep.py --workload crosscheck --setup-only

A traced pass (``--trace 1``) writes its spans to
``.bench_build/perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import workloads as W

perf = time.perf_counter
cpu = time.thread_time

# Per-query limit on the process's CPU time (NOTES.md: finished queries take
# at most 1.1 s, the hung ones over 60 s). CPU time, so that other work on
# the machine cannot push a finishing query over it.
QUERY_LIMIT_S = 3.0


class QueryTimeout(BaseException):
    """The query ran past its time limit. A ``BaseException``, so that no
    ``except Exception`` in the program swallows it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def setup(workload: str, src: str, clock=perf):
    """Import ``supercut`` from the checkout and build the workload's
    calculi, effective calculi and logics; returns (env, seconds)."""
    t0 = clock()
    sys.path.insert(0, src)
    env = W.Env(workload)
    return env, clock() - t0


def run_pass(env, items: list[dict], skip: frozenset = frozenset(), tracer=None) -> dict:
    """Run every item once, in order, each under ``QUERY_LIMIT_S``.

    Items in ``skip`` hit the limit in an earlier pass of the same run; they
    are not run again and count as timed out. ``latencies`` holds each
    item's CPU time in seconds (the span clock when traced), or None for a
    failed item: the program is single-threaded, so CPU time is its run
    time without the time other processes held the CPU. The thread's clock,
    not the process's: while ``ITIMER_PROF`` is armed, Linux advances the
    process CPU clock only at scheduler ticks, milliseconds apart.
    """
    clock = tracer.now if tracer is not None else perf
    qclock = tracer.now if tracer is not None else cpu
    latencies, outcomes, failed, wrong = [], [], [], []
    signal.signal(signal.SIGPROF, _alarm)
    start = clock()
    for item in items:
        if item["id"] in skip:
            failed.append([item["id"], "timeout"])
            latencies.append(None)
            outcomes.append(f"{item['id']}=None")
            continue
        if tracer is not None:
            tracer.begin(item["id"])
        t0 = qclock()
        outcome, failure = None, None
        try:
            signal.setitimer(signal.ITIMER_PROF, QUERY_LIMIT_S)
            try:
                outcome = W.QUERIES[item["kind"]](env, item)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except QueryTimeout:
            failure = "timeout"
        except W.WrongResult as exc:
            failure = "wrong"
            wrong.append([item["id"], str(exc)])
        except RecursionError:
            failure = "RecursionError"
        except Exception as exc:  # any other exception is a failed query, recorded by type
            failure = type(exc).__name__
        took = qclock() - t0
        latencies.append(None if failure else took)
        if failure:
            failed.append([item["id"], failure])
        outcomes.append(f"{item['id']}={outcome}")
        if tracer is not None:
            tracer.end(keep_counts=failure != "timeout")
    return {
        "pass_s": clock() - start,
        "ids": [item["id"] for item in items],
        "latencies": latencies,
        "failed": failed,
        "wrong": wrong,
        "digest": hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16],
        "bounded_valid": env.bounded_valid,
        "bounded_misses": env.bounded_misses,
        "refusals": env.refusals,
        "json_bytes": env.json_bytes,
        "interpolant_size": env.interpolant_size,
    }


def latency_metrics(latencies: list) -> dict[str, float]:
    """A failed query (None) counts as taking the whole limit, in ``wall_s``
    and in the percentiles alike: a query that starts to hang makes them
    worse, and one that stops hanging makes them better."""
    times = [QUERY_LIMIT_S if x is None else x for x in latencies]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "wall_s": sum(times),
        "query_p50_ms": deciles[4] * 1e3,
        "query_p90_ms": deciles[8] * 1e3,
        "completed": float(sum(x is not None for x in latencies)),
    }


# Per-layer metrics of a traced pass, with units. ``<layer>_s`` is self time.
PER_LAYER = {
    "engine.saturate_s": "s",
    "engine.saturate_calls": "count",
    "engine.facts_kept": "count",
    "engine.facts_minimal": "count",
    "engine.fact_useful_ratio": "ratio",
    "engine.derives_self_s": "s",
    "engine.effective_rules": "count",
    "engine.effective_calculus_s": "s",
    "engine.reconstruct_s": "s",
    "engine.bounded_misses": "count",
    "rules.expansion_pool_s": "s",
    "rules.at_set_s": "s",
    "rules.at_set_calls": "count",
    "rules.at_set_members": "count",
    "matrices.holds_s": "s",
    "matrices.holds_calls": "count",
    "matrices.valuations": "count",
    "matrices.ns_per_valuation": "ns",
    "matrices.holds_sequent_s": "s",
    "rewrite.normalize_s": "s",
    "rewrite.expand_structural_s": "s",
    "rewrite.make_analytic_synthetic_s": "s",
    "rewrite.enforce_subformula_s": "s",
    "rewrite.eliminate_cuts_s": "s",
    "rewrite.simplify_refutation_s": "s",
    "rewrite.separate_identity_cut_s": "s",
    "rewrite.expanded_nodes": "count",
    "rewrite.refusals": "count",
    "proofs.check_s": "s",
    "proofs.check_calls": "count",
    "proofs.build_intro_s": "s",
    "proofs.elim_targets_s": "s",
    "proofs.serialize_s": "s",
    "proofs.proof_nodes": "count",
    "syntax.parse_s": "s",
    "syntax.parse_calls": "count",
    "interpolation.self_s": "s",
    "interpolation.interpolant_size": "count",
    "cli.run_s": "s",
    "cli.run_calls": "count",
    "cli.json_bytes": "bytes",
    "bench.traced_wall_s": "s",
    "bench.harness_s": "s",
    "bench.count_s": "s",
    "bench.span_coverage": "ratio",
}


def layer_metrics(tracer, res: dict, setup_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass; self times cover set-up too.

    ``bench.harness_s`` is the traced time no layer span covers (the
    benchmark's own loop and checks) and ``bench.span_coverage`` the share
    the layers cover; failed queries count here, since their time was spent
    in the layers all the same.
    """
    own = {f"{name}_s": max(v, 0.0) for name, v in tracer.self_times().items()}
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(own)
    out.update({k: float(v) for k, v in tracer.counts.items()})
    counts = tracer.counts
    out["engine.fact_useful_ratio"] = counts["engine.facts_minimal"] / max(counts["engine.facts_kept"], 1)
    out["matrices.ns_per_valuation"] = out["matrices.holds_s"] * 1e9 / max(counts["matrices.valuations"], 1)
    out["rewrite.refusals"] = float(res["refusals"])
    out["engine.bounded_misses"] = float(res["bounded_misses"])
    out["interpolation.interpolant_size"] = float(res["interpolant_size"])
    out["cli.json_bytes"] = float(res["json_bytes"])
    traced = setup_s + res["pass_s"]
    covered = sum(own.values())
    out["bench.traced_wall_s"] = res["wall_s"]
    out["bench.harness_s"] = max(traced - covered, 0.0)
    out["bench.span_coverage"] = covered / traced
    out["bench.count_s"] = tracer.hook_s
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise AssertionError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.SETUP_CALCULI))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--skip", default="", help="comma-separated ids that timed out in an earlier pass")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "supercut", "__init__.py")):
        print(f"no supercut sources under {src}", file=sys.stderr)
        return 2

    if args.setup_only:
        _, setup_s = setup(args.workload, src)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    items = json.load(sys.stdin)
    tracer = None
    if args.trace:
        sys.path.insert(0, src)
        import supercut.cli  # noqa: F401  (wrapping needs every module loaded)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    env, setup_s = setup(args.workload, src, tracer.now if tracer is not None else perf)
    loaded = sys.modules["supercut"].__file__
    if not loaded.startswith(src):
        print(f"supercut imported from {loaded}, not from {src}", file=sys.stderr)
        return 2
    res = run_pass(env, items, frozenset(filter(None, args.skip.split(","))), tracer)
    res.update(latency_metrics(res["latencies"]))
    res["setup_s"] = setup_s
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        res["layers"] = layer_metrics(tracer, res, setup_s)
        out_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.jsonl"))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
