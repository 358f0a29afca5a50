"""The saturation engine: verdicts against the oracle, proof shapes, caps."""

import functools
import hashlib
import itertools
import json
import random
import time

import pytest

from supercut import engine, rules
from supercut.engine import DeriveResult, ResourceCapError, derives, effective_calculus, refutes, saturate
from supercut.matrices import builtin, holds, holds_sequent
from supercut.proofs import (
    check,
    proof_to_dict,
    has_subformula_property,
    is_analytic_synthetic,
    is_intro,
    is_structurally_atomic,
)
from supercut.rules import (
    CALCULUS_NAMES,
    IDENTITY,
    Calculus,
    at_set,
    builtin_calculus,
)
from supercut.syntax import Atom, Sequent, atoms_of, parse_formula as pf, parse_sequent as ps, tau

from conftest import GLP_LC, HILBERT, random_sequent, renamed


def _minimal_facts(facts):
    """Reference antichain: the facts (pairs of atom masks) no other fact
    subsumes, smallest first."""
    keys = sorted(facts, key=lambda k: (k[0].bit_count() + k[1].bit_count(), k))
    out = []
    for k in keys:
        if not any(d[0] & ~k[0] == 0 and d[1] & ~k[1] == 0 for d in out):
            out.append(k)
    return out


CALC_LOGIC = [("gb", "b"), ("glp", "lp"), ("gk", "k"), ("gcl", "cl")]


def assert_good_proof(res: DeriveResult, premises):
    assert res.proof is not None
    assert check(res.proof, res.calculus, premises).ok
    assert is_structurally_atomic(res.proof)
    assert is_analytic_synthetic(res.proof)
    assert has_subformula_property(res.proof, premises)
    assert res.proof.premise_leaves() <= frozenset(premises)


class TestDerives:
    def test_lem(self):
        assert derives([], ps("|- p | ~p"), builtin_calculus("glp")).verdict
        assert not derives([], ps("|- p | ~p"), builtin_calculus("gb")).verdict

    def test_disjunctive_syllogism_getl(self):
        prems = [ps("|- p"), ps("|- ~p | q")]
        res = derives(prems, ps("|- q"), builtin_calculus("getl"))
        assert res.verdict and res.complete
        assert_good_proof(res, prems)
        # the structural zone is a single atomic Limited Cut
        structural_rules = [
            n.rule
            for n in res.proof.nodes()
            if n.rule not in ("premise",) and not n.rule.startswith(("and", "or", "neg", "top", "bot"))
        ]
        assert structural_rules == ["limited-cut-left"]

    def test_resolution_gk(self):
        prems = [ps("|- p | q"), ps("|- ~q | r")]
        res = derives(prems, ps("|- p | r"), builtin_calculus("gk"))
        assert res.verdict and res.complete
        assert_good_proof(res, prems)

    def test_kleq_rule_both_sides(self):
        prems = [ps("|- (p & ~p) | r")]
        goal = ps("|- (q | ~q) | r")
        assert derives(prems, goal, builtin_calculus("gk")).verdict
        assert derives(prems, goal, builtin_calculus("glp")).verdict

    def test_top_axiom(self):
        res = derives([], ps("|- T"), builtin_calculus("gb"))
        assert res.verdict
        assert_good_proof(res, [])

    def test_goal_is_a_premise(self):
        prems = [ps("p & q |- r")]
        res = derives(prems, prems[0], builtin_calculus("gb"))
        assert res.verdict and res.proof.rule == "premise" and res.proof.size() == 1

    def test_fact_cap(self):
        prems = [ps("|- p | q | r"), ps("p |- q, r"), ps("q |- p"), ps("r |- q")]
        with pytest.raises(ResourceCapError):
            derives(prems, ps("|- q"), builtin_calculus("gk"), max_facts=2)

    def test_empty_universe_padding(self):
        res = derives([ps("|- ~T")], ps("|- F"), builtin_calculus("gb"))
        assert res.verdict
        assert_good_proof(res, [ps("|- ~T")])

    def test_empty_sequent_fact_derives_everything(self):
        prems = [ps("T |-")]
        res = derives(prems, ps("p |- q"), builtin_calculus("gb"))
        assert res.verdict
        assert_good_proof(res, prems)

    def test_minimal_facts_past_32_atoms(self, rng):
        # atoms 32..39 on the left share bit positions with atoms 0..7 on
        # the right once the right mask is shifted by 32
        keys = {(rng.getrandbits(40) & rng.getrandbits(40), rng.getrandbits(40) & rng.getrandbits(40))
                for _ in range(300)}
        keys |= {(1 << 35, 1 << 3), (1 << 35, 0), (0, 1 << 3), (1 << 35 | 1 << 36, 1 << 3)}

        def below(d, k):
            return d[0] & ~k[0] == 0 and d[1] & ~k[1] == 0

        out = _minimal_facts(keys)
        assert len(out) == len(set(out))
        assert set(out) == {k for k in keys if not any(d != k and below(d, k) for d in keys)}
        assert {(1 << 35, 0), (0, 1 << 3)} <= set(out)

    def test_one_cover_lookup_per_leaf(self, monkeypatch):
        looked_up = []
        cover = engine._covering_fact
        monkeypatch.setattr(engine, "_covering_fact", lambda state, leaf: looked_up.append(leaf) or cover(state, leaf))
        goal = ps("|- (p & q) | r, p & s")
        res = derives([ps("|- p"), ps("|- q"), ps("|- s")], goal, builtin_calculus("gb"))
        assert res.verdict and len(at_set(goal)) == 4
        assert sorted(looked_up, key=Sequent.render) == sorted(at_set(goal), key=Sequent.render)

    def test_bounded_calculus_built_once(self, monkeypatch):
        # the pool and the compiled shapes belong to the (calculus, depth
        # bound): a second query does no work proportional to the pool
        pools, compiled = [], []
        pool, compile_ = rules.expansion_pool, engine._compile
        monkeypatch.setattr(rules, "expansion_pool", lambda *a: pools.append(a) or pool(*a))
        monkeypatch.setattr(engine, "_compile", lambda r: compiled.append(r) or compile_(r))
        calc = Calculus("glp+lc-built-once", GLP_LC.specific)
        first = derives([ps("|- p"), ps("p |- q")], ps("|- q"), calc)
        rules_ = len(first.calculus.specific)
        # a pool each for limited-cut-left and limited-cut-right
        assert first.verdict and len(pools) == 2 and len(compiled) == rules_ > 3
        second = derives([ps("|- p, q"), ps("p |-")], ps("|- q"), calc)
        assert second.verdict and second.calculus is first.calculus
        assert len(pools) == 2 and len(compiled) == rules_
        # getl, gecq and the other built-in calculi build no pool
        for name in CALCULUS_NAMES:
            fresh = Calculus(f"{name}-built-once", builtin_calculus(name).specific)
            res = refutes([ps("|- p"), ps("p |-")], fresh)
            assert res.complete and res.calculus is fresh and res.verdict == (name not in ("gb", "glp"))
        assert len(pools) == 2

    def test_proofs_check_in_the_base_calculus(self, rng):
        # a proof's expansion steps are named base[images], so it checks in
        # the calculus the query named, not only in the effective one
        def assert_checks(prems, goal, name):
            res = derives(prems, goal, builtin_calculus(name))
            if res.verdict:
                assert check(res.proof, builtin_calculus(name), prems).ok, (name, goal.render())
            return res.verdict and any("[" in n.rule for n in res.proof.nodes())

        for i in range(240):
            atoms = ["p", "q", "r"][: rng.randint(2, 3)]
            prems = [random_sequent(rng, atoms, 2) for _ in range(rng.randint(1, 3))]
            assert_checks(prems, random_sequent(rng, atoms, rng.randint(0, 1)), CALCULUS_NAMES[i % len(CALCULUS_NAMES)])
        pooled = 0
        for _ in range(120):
            # refutations of atomic sets, some by an explosive-cut on a compound formula
            prems = []
            for _ in range(rng.randint(3, 5)):
                left = rng.sample(["p", "q", "r"], rng.randint(0, 1))
                prems.append(Sequent(map(Atom, left), map(Atom, rng.sample(["p", "q", "r"], rng.randint(0 if left else 1, 2)))))
            pooled += assert_checks(prems, Sequent(), "gecq")
        assert pooled >= 3


class TestRenamedBuiltins:
    """A built-in calculus with its rules, their schema atoms and their
    slots renamed is known by its schemas: it saturates as the built-in
    does, with no expansion pool."""

    @pytest.mark.parametrize("name", ["gk", "glp", "gcl", "getl", "gecq"])
    def test_same_verdicts_and_facts(self, name):
        calc = builtin_calculus(name)
        other = renamed(calc)
        assert effective_calculus(other) == (other, True)
        rng = random.Random(f"renamed-{name}")
        for _ in range(150):
            prems = [random_sequent(rng, ["p", "q", "r"], 1) for _ in range(rng.randint(0, 3))]
            goal = Sequent() if rng.random() < 0.2 else random_sequent(rng, ["p", "q", "r"], 1)
            want, got = derives(prems, goal, calc), derives(prems, goal, other)
            assert (got.verdict, got.complete, got.fact_count) == (want.verdict, want.complete, want.fact_count)
            assert got.calculus is other
            if got.verdict:
                assert check(got.proof, other, prems).ok


class TestRefutes:
    def test_explosive_cut(self):
        prems = [ps("|- p"), ps("p |-")]
        res = refutes(prems, builtin_calculus("gecq"))
        assert res.verdict
        assert_good_proof(res, prems)
        assert not any(is_intro(n.rule) for n in res.proof.nodes())

    def test_antitheorem_discriminator(self):
        prems = [ps("|- (p & ~p) | (q & ~q)")]
        assert refutes(prems, builtin_calculus("gk")).verdict
        etl = refutes(prems, builtin_calculus("getl"))
        assert not etl.verdict and etl.complete

    def test_consistency(self):
        assert not refutes([], builtin_calculus("gcl")).verdict

    def test_classically_unsatisfiable_facts_need_not_be_refutable(self):
        # An atom's value is two bits, true and false; a fact L |- R holds
        # when some a in L is false or some b in R true, and no a in L is
        # true while every b in R is false. c = n (neither bit) and d = b
        # (both) satisfy all four facts, which no classical valuation does.
        facts = [ps("|- c, d"), ps("c |- d"), ps("d |- c"), ps("c, d |-")]
        forms = [tau(s) for s in facts]
        assert not holds(builtin("etl"), forms) and not holds(builtin("ecq"), forms)
        assert holds(builtin("cl"), forms)
        res = refutes(facts, builtin_calculus("gecq"))
        assert not res.verdict
        assert refutes(facts, builtin_calculus("gcl")).verdict


class TestOracleAgreement:
    def test_check_sound_against_semantics(self, rng):
        # checked proofs only ever prove semantically valid sequents
        pairs = [("gb", "b"), ("glp", "lp"), ("gk", "k"), ("gcl", "cl"), ("getl", "etl"), ("gecq", "ecq")]
        found = 0
        while found < 30:
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            calc_name, logic = pairs[found % len(pairs)]
            res = derives(prems, goal, builtin_calculus(calc_name))
            if res.proof is None:
                continue
            assert check(res.proof, res.calculus, prems).ok
            assert holds_sequent(builtin(logic), prems, goal)
            found += 1

    def test_sampled_agreement(self, rng):
        for _ in range(150):
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            for calc_name, logic in CALC_LOGIC:
                res = derives(prems, goal, builtin_calculus(calc_name))
                want = holds_sequent(builtin(logic), prems, goal)
                assert res.verdict == want, (calc_name, [s.render() for s in prems], goal.render())
                if res.verdict and res.proof.rule != "premise":
                    assert_good_proof(res, prems)

    def test_bounded_soundness_sampled(self, rng):
        # getl and gecq, bounded searches once, are exact
        for _ in range(40):
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(1, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            for calc_name, logic in (("getl", "etl"), ("gecq", "ecq")):
                res = derives(prems, goal, builtin_calculus(calc_name))
                assert res.verdict == holds_sequent(builtin(logic), prems, goal) and res.complete

    def test_cut_admissibility_theorem_level(self, rng):
        for _ in range(80):
            goal = random_sequent(rng, ["p", "q"], 2)
            assert derives([], goal, builtin_calculus("gb")).verdict == derives(
                [], goal, builtin_calculus("gk")
            ).verdict
            assert derives([], goal, builtin_calculus("glp")).verdict == derives(
                [], goal, builtin_calculus("gcl")
            ).verdict

    def test_identity_antiadmissibility_antitheorem_level(self, rng):
        for _ in range(60):
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(1, 3))]
            assert refutes(prems, builtin_calculus("gk")).verdict == refutes(
                prems, builtin_calculus("gcl")
            ).verdict

    def test_cut_from_identity_plus_limited_cut(self, rng):
        from supercut.rules import Calculus, IDENTITY, LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT

        glp_lc = Calculus("glp+lc", (IDENTITY, LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT))
        for _ in range(40):
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            res = derives(prems, goal, glp_lc)
            want = derives(prems, goal, builtin_calculus("gcl")).verdict
            if res.verdict:
                assert want  # bounded runs stay sound
            if want and not res.verdict:
                # the bounded search may miss; it must say so
                assert not res.complete


class TestExplosion:
    """gecq keeps its seed facts and refutes them by getl's join, in one
    explosive-cut step."""

    def test_explodes_is_cached_per_calculus(self):
        gecq = builtin_calculus("gecq")
        engine._explodes.cache_clear()
        assert engine._explodes(gecq) and engine._explodes(gecq)
        info = engine._explodes.cache_info()
        assert (info.maxsize, info.misses, info.hits) == (64, 1, 1)

    def test_oracle_differential(self, rng):
        # random premises of depth 2, 30% of them with an empty goal, and
        # atomic fact sets, half of them with an empty goal, whose facts
        # may hold an atom on both sides
        gecq, ecq = builtin_calculus("gecq"), builtin("ecq")
        positives = refuted = 0
        for i in range(1200):
            atoms = ["p", "q", "r", "s", "t"][: rng.randint(2, 5)]
            if i % 2 == 0:
                prems = [random_sequent(rng, atoms, 2) for _ in range(rng.randint(1, 4))]
                goal = Sequent() if rng.random() < 0.3 else random_sequent(rng, atoms, rng.randint(0, 1))
            else:
                prems = []
                for _ in range(rng.randint(3, 7)):
                    left = rng.sample(atoms, rng.randint(0, 2))
                    prems.append(Sequent(map(Atom, left), map(Atom, rng.sample(atoms, rng.randint(0 if left else 1, 2)))))
                goal = Sequent() if rng.random() < 0.5 else random_sequent(rng, atoms, 0)
            res = derives(prems, goal, gecq)
            want = holds_sequent(ecq, prems, goal)
            assert res.verdict == want and res.complete, ([s.render() for s in prems], goal.render())
            if res.verdict and res.proof.rule != "premise":
                positives += 1
                refuted += any(n.rule.startswith("explosive-cut") for n in res.proof.nodes())
                assert check(res.proof, gecq, prems).ok
                assert is_structurally_atomic(res.proof) and is_analytic_synthetic(res.proof)
        assert 400 < positives and 50 < refuted < positives

    def test_former_miss(self):
        prems = [ps("|- x0, x1, x2, x3, x4")] + [ps(f"x{i} |-") for i in range(5)]
        res = refutes(prems, builtin_calculus("gecq"))
        assert res.verdict and res.complete
        assert_good_proof(res, prems)

    def test_step_over_the_facts_the_refutation_used(self):
        # q twice on one side of a transversal: q |- p and p, q |- both give
        # q to the right, where a sum of bits, not their union, would read
        # an atom that is not there; |- r and r |- t take no part
        prems = [ps("q |- p"), ps("|- q"), ps("p, q |-"), ps("|- r"), ps("r |- t")]
        res = refutes(prems, builtin_calculus("gecq"))
        assert res.verdict
        assert_good_proof(res, prems)
        (step,) = [n for n in res.proof.nodes() if n.rule.startswith("explosive-cut")]
        assert step.rule == "explosive-cut[x0 & (~x1 | x2) & (~x3 | ~x4)]"
        assert len(step.children) == 3 + 1 * 2 * 2  # U, then the transversals
        assert ps("q |- q, q") in {c.conclusion for c in step.children}

    def test_refutation_chain(self):
        # |- p0, p_i |- p_{i+1}, p_n |-: 2**n transversals
        for n, within in ((2, True), (10, True), (11, False)):
            prems = [ps("|- p0")] + [ps(f"p{i} |- p{i + 1}") for i in range(n)] + [ps(f"p{n} |-")]
            if not within:
                with pytest.raises(ResourceCapError):
                    refutes(prems, builtin_calculus("gecq"))
                continue
            res = refutes(prems, builtin_calculus("gecq"))
            assert res.verdict and check(res.proof, builtin_calculus("gecq"), prems).ok
            (step,) = [n for n in res.proof.nodes() if n.rule.startswith("explosive-cut")]
            assert len(step.children) == n + 2 + 2 ** n


# The three getl entailments the depth-2 expansion pool missed.
GETL_MISSES = [
    (["x0 |- x1, x2, x3", "|- d, x0", "x1 |- d", "x2 |- d", "x3 |- d"], "|- d"),
    (["x0, x1 |- x2, x3", "|- d, x0", "|- d, x1", "x2 |- d", "x3 |- d"], "|- d"),
    (["|- d, x0", "|- d, x1", "|- d, x2", "|- d, x3", "|- d, x4", "x0, x1, x2, x3, x4 |-"], "|- d"),
]


def _getl_chain(n, broken=None):
    """|- p0 and |- ~p_i | p_{i+1} for i < n, without link ``broken``."""
    return [ps("|- p0")] + [ps(f"|- ~p{i} | p{i + 1}") for i in range(n) if i != broken]


class TestContextCut:
    """getl saturates by the context cut join and is exact."""

    @pytest.mark.parametrize("premises, goal", GETL_MISSES)
    def test_former_misses(self, premises, goal):
        prems = [ps(s) for s in premises]
        res = derives(prems, ps(goal), builtin_calculus("getl"))
        assert res.verdict and res.complete
        assert_good_proof(res, prems)
        assert holds_sequent(builtin("etl"), prems, ps(goal))

    def test_oracle_agreement_four_and_five_atoms(self, rng):
        etl, getl = builtin("etl"), builtin_calculus("getl")
        valid = 0
        for _ in range(300):
            atoms = ["p", "q", "r", "s", "t"][: rng.randint(4, 5)]
            prems = [random_sequent(rng, atoms, rng.randint(0, 1), 3) for _ in range(rng.randint(2, 6))]
            goal = random_sequent(rng, atoms, rng.randint(0, 1))
            res = derives(prems, goal, getl)
            want = holds_sequent(etl, prems, goal)
            assert res.verdict == want and res.complete, ([s.render() for s in prems], goal.render())
            if res.verdict:
                valid += 1
                assert check(res.proof, res.calculus, prems).ok
        assert 50 < valid < 250

    @pytest.mark.parametrize("broken", [None, 11])
    def test_chain_of_24(self, broken):
        prems = _getl_chain(24, broken)
        start = time.perf_counter()
        res = derives(prems, ps("|- p24"), builtin_calculus("getl"))
        assert time.perf_counter() - start < 2
        assert res.verdict == (broken is None) and res.complete
        if res.verdict:
            assert check(res.proof, res.calculus, prems).ok

    def test_fact_cap(self):
        prems = [ps(s) for s in GETL_MISSES[0][0]]
        assert derives(prems, ps("|- d"), builtin_calculus("getl"), max_facts=6).verdict
        with pytest.raises(ResourceCapError):
            derives(prems, ps("|- d"), builtin_calculus("getl"), max_facts=5)

    def test_join_keeps_the_minimal_facts_of_the_closure(self, rng):
        # atomic premises, none empty, so that most sets derive facts and
        # some derive them from derived facts
        def atomic():
            left = rng.sample(atoms, rng.randint(0, 2))
            return Sequent(map(Atom, left), map(Atom, rng.sample(atoms, rng.randint(0 if left else 1, 2))))

        getl = builtin_calculus("getl")
        for _ in range(200):
            atoms = ["p", "q", "r", "s", "t"][: rng.randint(4, 5)]
            premises = [atomic() for _ in range(rng.randint(4, 8))]
            state = saturate(premises, getl, atoms)
            want = set(_minimal_facts(_reference_context_cut_facts(premises, atoms)))
            assert set(state.facts) == want, [s.render() for s in premises]

    def test_steps_are_named_by_schema(self):
        # MC({x0}, {x1, x2, x3}) is limited-cut-left expanded by
        # ~x0 | x1 | x2 | x3, its core first; MC({}, {x}) is limited-cut-left
        prems = [ps(s) for s in GETL_MISSES[0][0]]
        getl = builtin_calculus("getl")
        res = derives(prems, ps("|- d"), getl)
        (step,) = {n.rule for n in res.proof.nodes() if n.rule != "premise"}
        assert step == "limited-cut-left[~x0 | x1 | x2 | x3]"
        assert res.calculus == getl and step not in {r.name for r in getl.specific}
        rule = getl.rule(step)
        assert rule == rules.expansion(rules.LIMITED_CUT_LEFT, (pf("~a | b | c | e"),))[0]
        assert rule.premises[0] == rules.SequentSchema(["x0"], (), ["x1", "x2", "x3"], ())
        assert rules.expansion(rules.LIMITED_CUT_LEFT, (Atom("a"),))[0].name == "limited-cut-left"

    def test_step_wider_than_ten_atoms(self):
        # eleven side atoms: the schema atoms sort as x1 < x10 < x11 < x2
        n = 12
        prems = [ps(f"a0 |- {', '.join(f'a{i}' for i in range(1, n))}"), ps("|- d, a0")]
        prems += [ps(f"a{i} |- d") for i in range(1, n)]
        res = derives(prems, ps("|- d"), builtin_calculus("getl"))
        assert res.verdict
        assert_good_proof(res, prems)
        (step,) = {n.rule for n in res.proof.nodes() if n.rule != "premise"}
        assert step == "limited-cut-left[~x0 | " + " | ".join(f"x{i}" for i in range(1, n)) + "]"

    def test_core_of_twelve_atoms_binds_in_leaf_order(self):
        # the core p0..p5 |- q0..q5 refuted by |- p_i and q_i |-: x<i> is the
        # core's i-th atom in leaf order, though x10 sorts before x2
        atoms = [Atom(f"p{i}") for i in range(6)] + [Atom(f"q{i}") for i in range(6)]
        prems = [Sequent(atoms[:6], atoms[6:])] + [Sequent([], [a]) for a in atoms[:6]]
        prems += [Sequent([a], []) for a in atoms[6:]]
        getl = builtin_calculus("getl")
        res = refutes(prems, getl)
        assert res.verdict and res.complete
        assert check(res.proof, res.calculus, prems).ok
        (step,) = [n for n in res.proof.nodes() if n.rule != "premise"]
        theta = {f"x{i}": a for i, a in enumerate(atoms)}
        want = [p.instance(theta.get, lambda s: Sequent()) for p in getl.rule(step.rule).premises]
        assert [c.conclusion for c in step.children] == want


def _reference_context_cut_facts(premises, universe):
    """Every fact of the closure under the context cut, firing it on the
    minimal facts until nothing new appears: per core fact, the unions of
    one fact per needed atom, with that atom taken out."""
    index = {a: i for i, a in enumerate(universe)}
    facts = set()
    for s in premises:
        for member in at_set(s):
            sup = member.support()
            facts.add((sum(1 << index[f.name] for f in sup.left if isinstance(f, Atom)),
                       sum(1 << index[f.name] for f in sup.right if isinstance(f, Atom))))
    changed = True
    while changed:
        minimal = _minimal_facts(facts)
        before = len(facts)
        for core in minimal:
            conclusions = {(0, 0)}
            for i in range(len(universe)):
                bit = 1 << i
                if core[0] & bit:  # G |- D, a for an atom a on the core's left
                    shares = {(f[0], f[1] & ~bit) for f in minimal if f[1] & bit}
                    conclusions = {(a | x, b | y) for a, b in conclusions for x, y in shares}
                if core[1] & bit:  # b, G |- D for an atom b on its right
                    shares = {(f[0] & ~bit, f[1]) for f in minimal if f[0] & bit}
                    conclusions = {(a | x, b | y) for a, b in conclusions for x, y in shares}
            if core != (0, 0):
                facts |= conclusions
        changed = len(facts) > before
    return facts


# ---------------------------------------------------------------------------
# Ground-instance reference saturator
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _ground_instances(calc, universe):
    """Each rule under every assignment of universe atoms to its schema atoms:
    per premise its left and right masks and whether the content of its left
    and right slots reaches the conclusion (None on a slot-free side), then
    the conclusion's masks."""
    index = {a: i for i, a in enumerate(universe)}

    def mask(names):
        return sum(1 << index[n] for n in set(names))

    instances = set()
    for rule in calc.specific:
        c = rule.conclusion
        names = rule.schema_atoms()

        def flows(slots):
            return bool(set(slots) & set(c.slots_left + c.slots_right)) if slots else None

        for combo in itertools.product(universe, repeat=len(names)):
            theta = dict(zip(names, combo))
            # slot-free premises first: they reject most instances
            prems = tuple(sorted(((mask(theta[a] for a in p.atoms_left), mask(theta[a] for a in p.atoms_right),
                                   flows(p.slots_left), flows(p.slots_right)) for p in rule.premises),
                                 key=lambda q: (q[2] is not None) + (q[3] is not None)))
            instances.add((prems, mask(theta[a] for a in c.atoms_left), mask(theta[a] for a in c.atoms_right)))
    return instances


def _reference_facts(premises, calc, universe):
    """Every fact of the closure, by firing the ground instances of each rule
    on the minimal facts until nothing new appears."""
    index = {a: i for i, a in enumerate(universe)}
    facts = set()
    for s in premises:
        for member in at_set(s):
            sup = member.support()
            facts.add((sum(1 << index[f.name] for f in sup.left if isinstance(f, Atom)),
                       sum(1 << index[f.name] for f in sup.right if isinstance(f, Atom))))
    instances = _ground_instances(calc, tuple(universe))
    changed = True
    while changed:
        minimal = _minimal_facts(facts)
        before = len(facts)
        shares = {}  # premise -> what the facts that weaken to it bring to the conclusion
        for prems, cl, cr in instances:
            conclusions = {(cl, cr)}
            for prem in prems:
                if prem not in shares:
                    # a fact weakens to the premise when its slot-free sides
                    # fit; the rest of a slotted side goes into the slot
                    lm, rm, lflows, rflows = prem
                    shares[prem] = {((k[0] & ~lm) * bool(lflows), (k[1] & ~rm) * bool(rflows)) for k in minimal
                                    if (lflows is not None or k[0] & ~lm == 0) and (rflows is not None or k[1] & ~rm == 0)}
                conclusions = {(a | x, b | y) for a, b in conclusions for x, y in shares[prem]}
                if not conclusions:
                    break
            facts |= conclusions
        changed = len(facts) > before
    return facts


# gecq saturates by getl's join; in its place, the generic join runs over
# explosive-cut's depth-2 expansion pool, 26 rules of up to six premises
EXPLOSIVE_POOL = Calculus("gecq+exp2", tuple(sorted(rules.expansion_pool(rules.EXPLOSIVE_CUT, 2), key=lambda r: r.name)))
DIFFERENTIAL_CALCULI = [EXPLOSIVE_POOL if n == "gecq" else builtin_calculus(n) for n in CALCULUS_NAMES]
DIFFERENTIAL_CALCULI += [effective_calculus(GLP_LC)[0], HILBERT]


class TestJoinDifferential:
    """The join over the antichain keeps exactly the minimal facts of the
    ground-instance closure; getl's context cut join, those of the context
    cut closure."""

    def assert_same(self, premises, calc, universe):
        state = saturate(premises, calc, universe)
        if calc == builtin_calculus("getl"):
            want = set(_minimal_facts(_reference_context_cut_facts(premises, universe)))
        else:
            want = set(_minimal_facts(_reference_facts(premises, calc, universe)))
        assert set(state.facts) == want, (calc.name, universe, [s.render() for s in premises])
        assert set(state.facts) <= set(state.provenance)

    def test_random_premise_sets(self, rng):
        for i in range(350):
            atoms = ["p", "q", "r", "s"][: rng.randint(2, 4)]
            premises = [random_sequent(rng, atoms, rng.randint(0, 2)) for _ in range(rng.randint(0, 3))]
            self.assert_same(premises, DIFFERENTIAL_CALCULI[i % len(DIFFERENTIAL_CALCULI)], atoms)

    def test_atomic_premise_chains(self, rng):
        # more, shallower premises, so that facts build on facts over several rounds
        for i in range(64):
            atoms = ["p", "q", "r", "s"]
            premises = [random_sequent(rng, atoms, rng.randint(0, 1)) for _ in range(rng.randint(3, 7))]
            self.assert_same(premises, DIFFERENTIAL_CALCULI[i % len(DIFFERENTIAL_CALCULI)], atoms)

    @pytest.mark.parametrize("calc, premises", [
        ("gk", ["p, r |-", "|- F, ~s", "|- q, r", "q |- F, F", "~s |- q & T"]),
        ("gcl", ["q |- r", "|- q", "|- q, r", "|- ~r, ~t", "T, T |- t", "t |- r"]),
    ])
    def test_facts_of_one_round_meet_in_the_next(self, calc, premises):
        # found by random search: a semi-naive round that joins with only one
        # of the previous round's new facts misses a minimal fact here
        premises = [ps(s) for s in premises]
        universe = sorted(set().union(*(atoms_of(s) for s in premises)))
        self.assert_same(premises, builtin_calculus(calc), universe)

    @pytest.mark.parametrize("calc", DIFFERENTIAL_CALCULI, ids=lambda c: c.name)
    def test_no_seed_fact(self, calc):
        # F on the left closes every premise by axiom: only rules without
        # premises can derive anything
        for premises in ([], [ps("F |- p")], [ps("p & F |- q"), ps("F, q |-")]):
            self.assert_same(premises, calc, ["p", "q", "r"])

    def test_identity_only(self):
        calc = Calculus("id", (IDENTITY,))
        state = saturate([], calc, ["p", "q"])
        assert set(state.facts) == {(1, 1), (2, 2)}
        self.assert_same([ps("q, p |- r")], calc, ["p", "q", "r"])

    def test_cut_away_atom_on_empty_fact_sides(self):
        # "p |- q => |- r": a fact |- s binds q; p meets only the fact's empty
        # left side, so any universe atom instantiates it
        state = saturate([ps("|- s")], HILBERT, ["p", "s", "t"])
        assert set(state.facts) == {(0, 1), (0, 2), (0, 4)}
        self.assert_same([ps("|- s")], HILBERT, ["p", "s", "t"])
        self.assert_same([ps("|- s, t"), ps("p |-")], HILBERT, ["p", "s", "t"])


# Per calculus: the first 16 hex digits of the SHA-256 of the proofs that
# GOLDEN_QUERIES derive, one line of sorted-key proof_to_dict JSON each
# ("-" when not derivable), and how many are derivable.
GOLDEN_DIGESTS = {
    "gb": ("5956211e7599ca37", 24),
    "glp": ("038e64706081291a", 23),
    "gk": ("68eca81a9ef5f086", 26),
    "getl": ("a00d5a98196a26cf", 29),
    "gecq": ("e64b379d2152bc72", 28),
    "gcl": ("1b7f581280b2e4a8", 25),
}


def golden_queries(name):
    """40 seeded queries of 1-3 depth-2 premises over three atoms, each
    fourth a refutation, then implication chains of 3 and 6 links to a goal
    and to a refutation."""
    rng = random.Random(f"golden-{name}")
    out = []
    for i in range(40):
        prems = [random_sequent(rng, ["p", "q", "r"], 2) for _ in range(rng.randint(1, 3))]
        goal = Sequent() if i % 4 == 0 else random_sequent(rng, ["p", "q", "r"], 2)
        out.append((prems, goal))
    for n in (3, 6):
        out.append(([ps("|- p0")] + [ps(f"|- ~p{i} | p{i + 1}") for i in range(n)], ps(f"|- p{n}")))
        out.append(([ps("|- p0")] + [ps(f"p{i} |- p{i + 1}") for i in range(n)] + [ps(f"p{n} |-")], Sequent()))
    return out


@pytest.mark.parametrize("name", CALCULUS_NAMES)
def test_derived_proofs_are_unchanged(name):
    # a change to saturation or reconstruction that changes any derived
    # proof, its rule names, node order or sharing read as a tree, shows here
    calc = builtin_calculus(name)
    h = hashlib.sha256()
    positives = 0
    for prems, goal in golden_queries(name):
        res = derives(prems, goal, calc)
        positives += res.verdict
        h.update((json.dumps(proof_to_dict(res.proof), sort_keys=True) if res.verdict else "-").encode() + b"\n")
    assert (h.hexdigest()[:16], positives) == GOLDEN_DIGESTS[name]
