"""Set-up and per-query execution of the three workloads.

Each query parses its text inputs, calls the public API of ``supercut`` and
checks the result against an independent reference:

- ``chain``: the verdict is known by construction; a positive verdict's
  proof must pass ``proofs.check``.
- ``crosscheck``: the verdict must equal the matrix oracle on the exact
  calculi and must not be a false positive on the bounded ones; a positive
  verdict's proof must pass ``proofs.check``.
- ``normalize`` / ``cut-free`` / ``refutation`` / ``cli``: every returned
  proof passes ``proofs.check`` against its declared premises and keeps its
  conclusion; ``interpolate``: the interpolant passes
  ``verify_interpolant``.

A query returns a short outcome string (digested for determinism checks).
A wrong result raises ``WrongResult``.
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import Callable

BOUNDED = ("getl", "gecq")

SETUP_CALCULI = {
    "chains": ("gk", "gcl", "getl"),
    "crosscheck": ("gb", "glp", "gk", "gcl", "getl", "gecq"),
    "proofs": ("gb", "glp", "gk", "gcl"),
}
SETUP_LOGICS = {
    "chains": (),
    "crosscheck": ("b", "lp", "k", "cl", "etl", "ecq"),
    "proofs": ("b", "k", "lp", "cl", "etl"),
}


class WrongResult(Exception):
    """The program returned an output that its reference rejects."""


class Env:
    """The workload's calculi, effective calculi and logics, built once."""

    def __init__(self, workload: str):
        from supercut import cli, engine, interpolation, matrices, proofs, rewrite, rules, syntax

        self.E, self.M, self.P = engine, matrices, proofs
        self.RW, self.I, self.S, self.cli = rewrite, interpolation, syntax, cli
        self.calculi = {c: rules.builtin_calculus(c) for c in SETUP_CALCULI[workload]}
        # derives() rebuilds the effective calculi per query; building them
        # once here puts the expansion pools of getl and gecq into set-up
        for calc in self.calculi.values():
            engine.effective_calculus(calc, 2)
        self.logics = {name: matrices.builtin(name) for name in SETUP_LOGICS[workload]}
        self.bounded_valid = 0
        self.bounded_misses = 0
        self.refusals = 0
        self.json_bytes = 0
        self.interpolant_size = 0

    def require(self, cond: bool, why: str) -> None:
        if not cond:
            raise WrongResult(why)

    def sequents(self, texts) -> list:
        return [self.S.parse_sequent(t) for t in texts]

    def checked(self, proof, calc, prems, conclusion, what: str) -> None:
        res = self.P.check(proof, calc, prems)
        self.require(res.ok, f"{what} fails check at {res.path}: {res.reason}")
        self.require(proof.conclusion == conclusion, f"{what} changed its conclusion")


def chain(env: Env, item: dict) -> str:
    prems, goal = env.sequents(item["premises"]), env.S.parse_sequent(item["goal"])
    res = env.E.derives(prems, goal, env.calculi[item["calculus"]])
    env.require(res.verdict == item["expect"], f"verdict {res.verdict}, expected {item['expect']}")
    if res.verdict:
        env.checked(res.proof, res.calculus, prems, goal, "proof")
    return f"{int(res.verdict)}:{res.fact_count}"


def crosscheck(env: Env, item: dict) -> str:
    prems, goal = env.sequents(item["premises"]), env.S.parse_sequent(item["goal"])
    calc = item["calculus"]
    res = env.E.derives(prems, goal, env.calculi[calc])
    want = env.M.holds_sequent(env.logics[item["logic"]], prems, goal)
    if calc in BOUNDED:
        env.require(want or not res.verdict, "false positive of a bounded calculus")
        if want:
            env.bounded_valid += 1
            env.bounded_misses += not res.verdict
    else:
        env.require(res.verdict == want, f"verdict {res.verdict}, oracle {want}")
    if res.verdict:
        env.checked(res.proof, res.calculus, prems, goal, "proof")
    return f"{int(res.verdict)}{int(want)}:{res.fact_count}"


def _proof_input(env: Env, item: dict):
    return env.P.proof_from_dict(json.loads(item["proof"]))


def normalize(env: Env, item: dict) -> str:
    calc = env.calculi[item["calculus"]]
    prems = env.sequents(item["premises"])
    proof = _proof_input(env, item)
    out = env.RW.normalize(proof, calc, prems, proof.conclusion)
    env.checked(out, calc, prems, proof.conclusion, "normalized proof")
    return "ok"


def cut_free(env: Env, item: dict) -> str:
    calc = env.calculi[item["calculus"]]
    proof = _proof_input(env, item)
    out = env.RW.eliminate_cuts(env.RW.normalize(proof, calc, [], proof.conclusion))
    env.checked(out, calc, [], proof.conclusion, "cut-free proof")
    bad = {n.rule for n in dag_nodes(out) if n.rule == "cut" or env.P.is_elim(n.rule)}
    env.require(not bad, f"cut-free proof still uses {sorted(bad)}")
    return "ok"


def refutation(env: Env, item: dict) -> str:
    prems = env.sequents(item["premises"])
    res = env.E.refutes(prems, env.calculi[item["calculus"]])
    env.require(res.verdict, "refutable set not refuted")
    try:
        out = env.RW.simplify_refutation(res.proof)
    except env.RW.RefutationShapeError:
        env.refusals += 1
        return "refused"
    env.checked(out, res.calculus, prems, res.proof.conclusion, "reshaped refutation")
    return "ok"


def interpolate(env: Env, item: dict) -> str:
    phi, psi = env.S.parse_formula(item["phi"]), env.S.parse_formula(item["psi"])
    res = env.I.interpolate_formulas(phi, psi, item["logic"])
    chi = res.interpolant_formula
    env.require(res.verified, "interpolant not verified by the program")
    env.require(env.I.verify_interpolant(phi, chi, psi, res.left_logic, res.right_logic),
                "interpolant fails verify_interpolant")
    env.interpolant_size += formula_size(chi)
    return env.S.render(chi)


def cli(env: Env, item: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = env.cli.run(item["argv"])
    text = buf.getvalue()
    env.json_bytes += len(text.encode())
    out = json.loads(text)
    verdict = out["verdict"]
    env.require(code == (0 if verdict else 1), f"exit code {code} for verdict {verdict}")
    prems, goal = env.sequents(item["premises"]), env.S.parse_sequent(item["goal"])
    want = env.M.holds_sequent(env.logics[item["logic"]], prems, goal)
    env.require(verdict == want, f"verdict {verdict}, oracle {want}")
    if verdict:
        proof = env.P.proof_from_dict(out["proof"])
        env.checked(proof, env.calculi[item["calculus"]], prems, goal, "proof")
    return f"{int(verdict)}"


QUERIES: dict[str, Callable[[Env, dict], str]] = {
    "chain": chain,
    "crosscheck": crosscheck,
    "normalize": normalize,
    "cut-free": cut_free,
    "refutation": refutation,
    "interpolate": interpolate,
    "cli": cli,
}


def dag_nodes(proof):
    """Distinct nodes of a proof, each once however often it is shared."""
    seen: dict[int, object] = {}
    todo = [proof]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.children)
    return list(seen.values())


def tree_size(proof) -> int:
    """Node count of the proof read as a tree, memoized over shared subtrees
    (``Proof.size`` is exponential in the sharing depth)."""
    memo: dict[int, int] = {}
    todo = [proof]
    while todo:
        node = todo[-1]
        pending = [c for c in node.children if id(c) not in memo]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        memo[id(node)] = 1 + sum(memo[id(c)] for c in node.children)
    return memo[id(proof)]


def formula_size(f) -> int:
    """Connective and leaf count of a formula."""
    size, todo = 0, [f]
    while todo:
        g = todo.pop()
        size += 1
        todo.extend(getattr(g, name) for name in ("arg", "left", "right") if hasattr(g, name))
    return size
