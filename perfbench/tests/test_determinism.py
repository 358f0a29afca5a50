"""Two traced passes over one seed's corpus give identical counts.

    python3 -m pytest perfbench/tests -q

Takes about a minute: each workload's corpus is generated twice and run
twice in full, in fresh interpreters, as the benchmark runs it.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

SEED = 7
COUNTS = (
    "engine.facts_kept",
    "rules.at_set_members",
    "matrices.valuations",
    "proofs.proof_nodes",
    "rewrite.refusals",
)


def traced_pass(workload: str, corpus: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "rep.py"), "--workload", workload, "--trace", "1"],
        input=corpus, capture_output=True, text=True, cwd=ROOT, timeout=run.CHILD_TIMEOUT_S, check=True,
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    return {
        "counts": {k: res["layers"][k] for k in COUNTS},
        "digest": res["digest"],
        "failed": res["failed"],
    }


@pytest.mark.parametrize("workload", ["chains", "crosscheck", "proofs"])
def test_same_seed_gives_same_counts(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    corpus = run.generate(workload, SEED)
    assert run.generate(workload, SEED) == corpus
    first, second = traced_pass(workload, corpus), traced_pass(workload, corpus)
    assert first == second
    assert first["counts"]["engine.facts_kept"] > 0


def test_seeds_differ(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run.generate("crosscheck", SEED) != run.generate("crosscheck", SEED + 1)
