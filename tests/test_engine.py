"""The saturation engine: verdicts against the oracle, proof shapes, caps."""

import pytest

from supercut.engine import DeriveResult, ResourceCapError, _minimal_facts, derives, refutes
from supercut.matrices import builtin, holds_sequent
from supercut.proofs import (
    check,
    has_subformula_property,
    is_analytic_synthetic,
    is_intro,
    is_structurally_atomic,
)
from supercut.rules import builtin_calculus
from supercut.syntax import Sequent, parse_sequent as ps

from conftest import random_sequent

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
        assert res.verdict and not res.complete
        assert_good_proof(res, prems)
        # the structural zone is a single atomic Limited Cut
        structural_rules = [
            n.rule
            for _, n in res.proof.walk()
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


class TestRefutes:
    def test_explosive_cut(self):
        prems = [ps("|- p"), ps("p |-")]
        res = refutes(prems, builtin_calculus("gecq"))
        assert res.verdict
        assert_good_proof(res, prems)
        assert not any(is_intro(n.rule) for _, n in res.proof.walk())

    def test_antitheorem_discriminator(self):
        prems = [ps("|- (p & ~p) | (q & ~q)")]
        assert refutes(prems, builtin_calculus("gk")).verdict
        bounded = refutes(prems, builtin_calculus("getl"))
        assert not bounded.verdict and not bounded.complete

    def test_consistency(self):
        assert not refutes([], builtin_calculus("gcl")).verdict


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
        for _ in range(40):
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(1, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            for calc_name, logic in (("getl", "etl"), ("gecq", "ecq")):
                res = derives(prems, goal, builtin_calculus(calc_name))
                if res.verdict:
                    assert holds_sequent(builtin(logic), prems, goal)

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
