"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import itertools
import random
import time

import pytest

from supercut.engine import derives, refutes
from supercut.interpolation import (
    interpolate_formulas,
    milne_interpolate,
    verify_interpolant,
)
from supercut.matrices import B4, K3, LP3, builtin, eval_formula, holds, holds_sequent
from supercut.proofs import (
    Proof,
    check,
    has_subformula_property,
    is_analytic_synthetic,
    is_elim,
    is_structurally_atomic,
    premise,
    structural,
)
from supercut.rewrite import eliminate_cuts, normalize
from supercut.rules import (
    LIMITED_CUT_LEFT,
    at_set,
    builtin_calculus,
    hilbert_to_structural,
    sigma_expand,
)
from supercut.syntax import (
    And,
    Atom,
    Neg,
    Or,
    Sequent,
    Substitution,
    parse_formula as pf,
    parse_sequent as ps,
    rho,
)

from conftest import random_formula, random_sequent, semantic_classes
from test_proofs import interderivability_fixtures

SEED = 20260808
EXACT = [("gb", "b"), ("glp", "lp"), ("gk", "k"), ("gcl", "cl")]


def report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_oracle_equivalence_exact_calculi():
    """derives agrees with holds_sequent on the full deduplicated 2-atom
    depth-2 corpus for all four exact calculi, plus 500 random instances
    at 3 atoms / depth 3."""
    t0 = time.time()
    reps = semantic_classes(["p", "q"], 2, B4)
    calcs = [(builtin_calculus(c), builtin(l)) for c, l in EXACT]
    disagreements = 0
    checked = 0
    for gamma, phi in itertools.product(reps, reps):
        prems, goal = [rho(gamma)], rho(phi)
        for calc, logic in calcs:
            got = derives(prems, goal, calc).verdict
            want = holds_sequent(logic, prems, goal)
            checked += 1
            if got != want:
                disagreements += 1
    assert disagreements == 0, f"{disagreements} disagreements on the exhaustive corpus"

    rng = random.Random(SEED)
    for _ in range(500):
        gamma = random_formula(rng, ["p", "q", "r"], 3)
        phi = random_formula(rng, ["p", "q", "r"], 3)
        prems, goal = [rho(gamma)], rho(phi)
        for calc, logic in calcs:
            assert derives(prems, goal, calc).verdict == holds_sequent(logic, prems, goal)
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 exceeded the 5 minute target: {elapsed:.1f}s"
    report("1 oracle equivalence", f"{checked + 2000} comparisons, {len(reps)}^2 pairs x 4 calculi, {elapsed:.1f}s")


def test_criterion_2_admissibility():
    """Cut admissibility at theorem level and Identity antiadmissibility at
    antitheorem level, with zero disagreements."""
    reps = semantic_classes(["p", "q"], 2, B4)
    gb, gk = builtin_calculus("gb"), builtin_calculus("gk")
    glp, gcl = builtin_calculus("glp"), builtin_calculus("gcl")
    for phi in reps:
        goal = rho(phi)
        assert derives([], goal, gb).verdict == derives([], goal, gk).verdict
        assert derives([], goal, glp).verdict == derives([], goal, gcl).verdict
    rng = random.Random(SEED + 1)
    for _ in range(300):
        prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(1, 3))]
        assert refutes(prems, gk).verdict == refutes(prems, gcl).verdict
    report("2 admissibility", f"{len(reps)} theorems x 2 pairs, 300 refutation sets")


def _engine_proofs(rng, count):
    out = []
    calcs = [builtin_calculus(c) for c, _ in EXACT]
    while len(out) < count:
        prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
        goal = random_sequent(rng, ["p", "q"], 2)
        calc = rng.choice(calcs)
        res = derives(prems, goal, calc)
        if res.proof is not None and res.proof.rule != "premise":
            out.append((res.proof, calc, prems, goal))
    return out


def _pad_gcl(proof, prems, rng):
    """Wrap a GCL proof with non-atomic structural steps preserving its
    conclusion: a cut on a compound formula, or a compound identity cut."""
    gcl = builtin_calculus("gcl")
    c = proof.conclusion
    chi = random_formula(rng, ["p", "q"], 1)
    style = rng.choice(["cutpad", "idpad"]) if c.right else "cutpad"
    if style == "idpad":
        m = rng.choice(c.right)
        ident = structural("identity", [], Sequent([m], [m]))
        padded = structural("cut", [proof, ident], c)
    else:
        left = structural("weakening-right", [proof], c.add(right=[chi]))
        right = structural("weakening-left", [proof], c.add(left=[chi]))
        doubled = Sequent(c.left + c.left, c.right + c.right)
        padded = structural("cut", [left, right], doubled)
        for f in c.left:
            padded = structural("contraction-left", [padded], padded.conclusion.remove_one(f, "left"))
        for f in c.right:
            padded = structural("contraction-right", [padded], padded.conclusion.remove_one(f, "right"))
        assert padded.conclusion == c
    assert check(padded, gcl, prems).ok
    return padded


def test_criterion_3_normal_form_pipeline():
    """normalize yields checked structurally atomic analytic-synthetic proofs
    with the subformula property, preserving conclusion and premise subset,
    idempotently, on >= 100 assorted proofs."""
    rng = random.Random(SEED + 2)
    gcl = builtin_calculus("gcl")
    jobs = []
    for proof, prems in interderivability_fixtures():
        jobs.append((proof, gcl, prems))
    for proof, calc, prems, _ in _engine_proofs(rng, 48):
        jobs.append((proof, calc, prems))
        if calc.name == "gcl":
            jobs.append((_pad_gcl(proof, prems, rng), gcl, prems))
    while len(jobs) < 100:
        proof, calc, prems, _ = _engine_proofs(rng, 1)[0]
        if calc.name in ("gk", "gcl"):
            jobs.append((_pad_gcl(proof, prems, rng) if calc.name == "gcl" else proof, gcl if calc.name == "gcl" else calc, prems))
    passed = 0
    for proof, calc, prems in jobs:
        n = normalize(proof, calc, prems, proof.conclusion)
        assert check(n, calc, prems).ok
        assert is_structurally_atomic(n)
        assert is_analytic_synthetic(n)
        assert has_subformula_property(n, prems)
        assert n.conclusion == proof.conclusion
        assert n.premise_leaves() <= frozenset(prems)
        assert normalize(n, calc, prems, n.conclusion) == n
        passed += 1
    assert passed >= 100
    report("3 normal-form pipeline", f"{passed} proofs, 100% pass")


def test_criterion_4_cut_elimination():
    """normalize + eliminate_cuts yields cut-free elimination-free GCL proofs
    for 100 classically valid sequents from empty premises."""
    rng = random.Random(SEED + 3)
    gcl = builtin_calculus("gcl")
    cl = builtin("cl")
    done = 0
    while done < 100:
        s = random_sequent(rng, ["p", "q", "r"], 2)
        if not holds_sequent(cl, [], s):
            continue
        res = derives([], s, gcl)
        assert res.verdict
        n = normalize(res.proof, gcl, [], s)
        cf = eliminate_cuts(n)
        rules = [x.rule for x in cf.nodes()]
        assert "cut" not in rules
        assert not any(is_elim(r) for r in rules)
        assert check(cf, gcl, []).ok
        assert cf.conclusion == s
        done += 1
    report("4 cut elimination", "100 classical tautologies, 100% cut- and elimination-free")


def test_criterion_5_golden_fixtures():
    """The displayed sigma-expansion, the structuralized explosion rule, the
    interderivability derivations, and the antitheorem discriminator."""
    ground = LIMITED_CUT_LEFT
    # grounded form with explicit r, s context atoms, as displayed
    from supercut.rules import parse_structural_rule

    grounded = parse_structural_rule("|- p ; p, r |- s => r |- s")
    out = sigma_expand(grounded, Substitution({"p": pf("p & q")}))
    assert {r.render() for r in out} == {"|- p ; |- q ; p, q, r |- s => r |- s"}

    rules = hilbert_to_structural([pf("p & ~p")], pf("q | ~q"))
    assert {r.render() for r in rules} == {"p |- ; |- p => q |- q"}

    gcl = builtin_calculus("gcl")
    for proof, prems in interderivability_fixtures():
        assert check(proof, gcl, prems).ok

    disc = pf("(p & ~p) | (q & ~q)")
    assert holds(builtin("k"), [disc], None)
    assert holds(builtin("cl"), [disc], None)
    assert not holds(builtin("etl"), [disc], None)
    assert not holds(builtin("ecq"), [disc], None)
    report("5 golden fixtures", "sigma-expansion, structuralization, GCL derivations, discriminator")


def test_criterion_6_at_set_correctness():
    """At-sets are interderivable with their sequent over B4 and invariant
    under randomized decomposition orders; 300 sequents, 5 orders each."""
    rng = random.Random(SEED + 4)
    b = builtin("b")
    for _ in range(300):
        s = random_sequent(rng, ["p", "q", "r"], 3)
        members = at_set(s)
        for a in members:
            assert holds_sequent(b, [s], a)
        assert holds_sequent(b, members, s)
        for _ in range(5):
            order = random.Random(rng.randint(0, 10**9))
            assert at_set(s, lambda cands: order.randrange(len(cands))) == members
    report("6 At-set correctness", "300 sequents, 5 random orders each, 0 failures")


def test_criterion_7_interpolation():
    """Verified interpolants: 200 B-valid pairs at (B,B), 100 K-valid at
    (K,B), 100 CL-valid via the Milne split at (K,LP); plus the exhaustive
    negative result for the Kleene-order logic."""
    rng = random.Random(SEED + 5)
    atoms = ["p", "q", "r", "s1"]

    def sample_valid(spec, count):
        pairs = []
        while len(pairs) < count:
            phi = random_formula(rng, atoms, 3)
            psi = random_formula(rng, atoms, 3)
            if holds(spec, [phi], psi):
                pairs.append((phi, psi))
        return pairs

    for phi, psi in sample_valid(builtin("b"), 200):
        r = interpolate_formulas(phi, psi, "b")
        assert verify_interpolant(phi, r.interpolant_formula, psi, "b", "b")
    for phi, psi in sample_valid(builtin("k"), 100):
        r = interpolate_formulas(phi, psi, "k")
        assert verify_interpolant(phi, r.interpolant_formula, psi, "k", "b")
    for phi, psi in sample_valid(builtin("cl"), 100):
        r = milne_interpolate(phi, psi)
        assert verify_interpolant(phi, r.interpolant_formula, psi, "k", "lp")

    # exhaustive negative instance for the Kleene order logic
    phi, psi = pf("(p & ~p) | r"), pf("(q | ~q) | r")
    assert holds(builtin("kleq"), [phi], psi)

    def key(f):
        return (
            tuple(eval_formula(K3, {"r": v}, f) for v in K3.carrier),
            tuple(eval_formula(LP3, {"r": v}, f) for v in LP3.carrier),
        )

    reps = {}
    for f in (Atom("r"), pf("T"), pf("F")):
        reps.setdefault(key(f), f)
    for _ in range(3):
        for a in list(reps.values()):
            reps.setdefault(key(Neg(a)), Neg(a))
        for a, b2 in itertools.product(list(reps.values()), repeat=2):
            for ctor in (And, Or):
                reps.setdefault(key(ctor(a, b2)), ctor(a, b2))
    witnesses = [chi for chi in reps.values() if verify_interpolant(phi, chi, psi, "kleq", "kleq")]
    assert witnesses == []
    report("7 interpolation", f"400 verified interpolants; K-order negative over {len(reps)} candidate classes")


def test_criterion_8_bounded_calculus_soundness():
    """GETL/GECQ verdicts, once searched within a depth bound, are never
    false positives, and, both calculi being exact, miss nothing."""
    rng = random.Random(SEED + 6)
    stats = {"getl": [0, 0], "gecq": [0, 0]}  # oracle-true -> [derived, missed]
    false_positives = 0
    for i in range(200):
        calc_name, logic = ("getl", "etl") if i % 2 == 0 else ("gecq", "ecq")
        prems = [random_sequent(rng, ["p", "q", "r"], 2) for _ in range(rng.randint(1, 2))]
        goal = random_sequent(rng, ["p", "q", "r"], 2)
        res = derives(prems, goal, builtin_calculus(calc_name))
        want = holds_sequent(builtin(logic), prems, goal)
        if res.verdict and not want:
            false_positives += 1
        if want:
            stats[calc_name][0 if res.verdict else 1] += 1
    assert false_positives == 0
    assert stats["getl"][1] == stats["gecq"][1] == 0
    found = {name: derived for name, (derived, _) in stats.items()}
    report("8 bounded-calculus soundness", f"0 false positives and 0 misses in 200 queries; derived {found}")
