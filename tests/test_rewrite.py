"""Proof rewriting passes: expansion, reordering, subformula enforcement,
cut elimination, refutation reshaping, identity/cut separation."""

import random
import time

import pytest

from supercut.engine import derives, effective_calculus, refutes
from supercut.proofs import (
    Proof,
    build_intro,
    check,
    elim_targets,
    has_subformula_property,
    is_analytic_synthetic,
    is_elim,
    is_intro,
    is_structural,
    is_structurally_atomic,
    logical,
    nodes_under,
    premise,
    rebuild,
    structural,
)
from supercut.rewrite import (
    InexpandableNode,
    RefutationShapeError,
    RewriteError,
    RewriteTrace,
    eliminate_cuts,
    enforce_subformula,
    expand_structural,
    make_analytic_synthetic,
    normalize,
    replay_trace,
    separate_identity_cut,
    simplify_refutation,
)
from supercut.rules import (
    CALCULUS_NAMES,
    CONTRACTION,
    CUT,
    DECOMPOSITION,
    IDENTITY,
    WEAKENING,
    Calculus,
    builtin_calculus,
    parse_structural_rule,
)
from supercut.syntax import Atom, Bot, Neg, Sequent, Top, parse_formula as pf, parse_sequent as ps

from conftest import HILBERT, RENAMED_RULES, random_formula, random_sequent, renamed

GB = builtin_calculus("gb")
GLP = builtin_calculus("glp")
GK = builtin_calculus("gk")
GCL = builtin_calculus("gcl")


class TestExpandStructural:
    def test_cut_on_conjunction(self):
        p1 = premise(ps("|- p & q"), 0)
        p2 = premise(ps("p & q |- r"), 1)
        node = structural("cut", [p1, p2], ps("|- r"))
        prems = [ps("|- p & q"), ps("p & q |- r")]
        out = expand_structural(node, GK)
        assert check(out, GK, prems).ok
        assert is_structurally_atomic(out)
        assert out.conclusion == node.conclusion
        # one atomic instance of the cut's expansion on x0 & x1
        assert [n.rule for n in out.nodes() if is_structural(n.rule)] == ["cut[x0 & x1]"]

    @pytest.mark.parametrize("text, name", [
        ("p & q", "cut[x0 & x1]"),
        ("p | ~q", "cut[x0 | ~x1]"),
        ("~(p & p)", "cut[~(x0 & x1)]"),
        ("(p | ~q) & r", "cut[(x0 | ~x1) & x2]"),
        ("T", "cut[T]"),
        ("F & p", "cut[F & x0]"),
    ])
    def test_compound_cut_becomes_expansion_steps(self, text, name):
        # a Cut on a compound formula comes out of normalize as atomic
        # instances of its expansion, named by the formula's linear form,
        # which the checker resolves to a rule of the calculus
        f = pf(text)
        prems = [Sequent([Atom("s")], [f]), Sequent([f, Atom("s")], [Atom("t")])]
        node = structural("cut", [premise(prems[0], 0), premise(prems[1], 1)], ps("s, s |- t"))
        for calc in (GK, GCL):
            out = normalize(node, calc, prems, node.conclusion)
            steps = [n for n in out.nodes() if is_structural(n.rule)]
            assert steps and {n.rule for n in steps} == {name}
            assert all(n.conclusion.is_atomic() for n in steps)
            assert calc.rule(name) is not None and check(out, calc, prems).ok

    def test_cut_on_a_deep_negation_chain(self):
        # the expansion's one step on ~~...~x0 is built without recursion
        f = Atom("p")
        for _ in range(3000):
            f = Neg(f)
        prems = [Sequent([], [f]), Sequent([f], [Atom("q")])]
        node = structural("cut", [premise(prems[0], 0), premise(prems[1], 1)], ps("|- q"))
        out = normalize(node, GCL, prems, node.conclusion)
        assert [n.rule for n in out.nodes() if is_structural(n.rule)] == ["cut[" + "~" * 3000 + "x0]"]
        assert check(out, GCL, prems).ok

    def test_weakening_by_conjunction(self):
        base = premise(ps("|- r"), 0)
        node = structural("weakening-left", [base], ps("p & q |- r"))
        out = expand_structural(node, GB)
        assert check(out, GB, [ps("|- r")]).ok
        assert is_structurally_atomic(out)
        assert out.rule == "and-left-intro"
        assert not any(is_elim(n.rule) for n in out.nodes())

    def test_already_atomic_is_fixpoint(self):
        node = structural("cut", [premise(ps("|- p"), 0), premise(ps("p |- q"), 1)], ps("|- q"))
        assert expand_structural(node, GK) == node

    def test_identity_on_compound(self):
        node = structural("identity", [], ps("p & ~q |- p & ~q"))
        out = expand_structural(node, GCL)
        assert check(out, GCL, []).ok and is_structurally_atomic(out)
        assert out.conclusion == node.conclusion

    def test_helpers_produce_checked_proofs(self):
        # a compound Identity, Weakening or Cut step takes its At-leaf table
        # from At-sets: the output is atomic and checks
        f = pf("(p | ~q) & r")
        _assert_expands(structural("identity", [], Sequent([f], [f])), [])
        _assert_expands(structural("weakening-left", [premise(ps("|- s"), 0)], Sequent([f], [Atom("s")])), [ps("|- s")])
        prems = [ps("|- s, (p | ~q) & r"), ps("(p | ~q) & r |- t")]
        _assert_expands(structural("cut", [premise(prems[0], 0), premise(prems[1], 1)], ps("|- s, t")), prems)

    @pytest.mark.parametrize("conn, side", list(DECOMPOSITION), ids=lambda x: getattr(x, "__name__", x))
    def test_helpers_on_every_table_row(self, rng, conn, side):
        for _ in range(15):
            if conn in (Top, Bot):
                f = conn()
            else:
                comps = [random_formula(rng, ["p", "q"], 2) for _ in range(2)]
                f = Neg(comps[0]) if conn is Neg else conn(*comps)
            s, t = random_sequent(rng, ["p", "q"], 0), random_sequent(rng, ["p", "q"], 0)
            w = structural(WEAKENING[side], [premise(s, 0)], s.add(**{side: [f]}))
            _assert_expands(w, [s])
            doubled = s.add(**{side: [f, f]})
            _assert_expands(structural(CONTRACTION[side], [premise(doubled, 0)], s.add(**{side: [f]})), [doubled])
            s1, s2 = s.add(right=[f]), t.add(left=[f])
            cut = structural("cut", [premise(s1, 0), premise(s2, 1)], Sequent(s.left + t.left, s.right + t.right))
            _assert_expands(cut, [s1, s2])
            _assert_expands(structural("identity", [], Sequent([f], [f])), [])


def _assert_expands(node, prems):
    """node, a single step of GCL over premise leaves, expands into a checked
    three-phase proof of its conclusion, which normalize keeps."""
    assert check(node, GCL, prems).ok
    out = expand_structural(node, GCL)
    assert out.conclusion == node.conclusion and check(out, GCL, prems).ok
    assert is_structurally_atomic(out) and is_analytic_synthetic(out)
    assert normalize(node, GCL, prems, node.conclusion) == out == normalize(out, GCL, prems, out.conclusion)


class TestMakeAnalyticSynthetic:
    def test_principal_cancellation(self):
        i = logical("and-right-intro", [premise(ps("|- p"), 0), premise(ps("|- q"), 1)], ps("|- p & q"))
        e = logical("and-right-elim", [i], ps("|- p"))
        out = make_analytic_synthetic(e)
        assert out == premise(ps("|- p"), 0)

    def test_left_intro_cancellation(self):
        i = logical("and-left-intro", [premise(ps("p, q |- r"), 0)], ps("p & q |- r"))
        e = logical("and-left-elim", [i], ps("p, q |- r"))
        out = make_analytic_synthetic(e)
        assert out == premise(ps("p, q |- r"), 0)

    def test_side_permutation(self):
        base = premise(ps("p & q |- r, s"), 0)
        i = logical("or-right-intro", [base], ps("p & q |- r | s"))
        e = logical("and-left-elim", [i], ps("p, q |- r | s"))
        out = make_analytic_synthetic(e)
        assert is_analytic_synthetic(out)
        assert out.conclusion == e.conclusion
        assert check(out, GB, [ps("p & q |- r, s")]).ok

    def test_already_ordered_unchanged(self):
        e = logical("and-right-elim", [premise(ps("|- p & q"), 0)], ps("|- p"))
        i = logical("or-right-intro", [structural("weakening-right", [e], ps("|- p, r"))], ps("|- p | r"))
        assert make_analytic_synthetic(i) == i

    def test_detours_over_engine_proofs(self, rng):
        # eliminations put below an engine proof's introductions, and the
        # introductions built again below them
        detours = 0
        for calc in (GB, GLP, GCL):
            for _ in range(25):
                prems = [random_sequent(rng, ["p", "q"], 2)]
                goal = random_sequent(rng, ["p", "q"], 2)
                res = derives(prems, goal, calc)
                if not res.verdict:
                    continue
                detour = build_intro(goal, elim_targets(res.proof).__getitem__)
                detours += not is_analytic_synthetic(detour)
                out = make_analytic_synthetic(detour)
                assert check(out, res.calculus, prems).ok and out.conclusion == goal
                assert is_analytic_synthetic(out)
                assert out.premise_leaves() <= detour.premise_leaves()
                n = normalize(res.proof, res.calculus, prems, goal)
                assert make_analytic_synthetic(n) == n
        assert detours > 10


class TestEnforceSubformula:
    def test_foreign_atom_renamed(self):
        prems = [ps("p |- p")]
        w1 = structural("weakening-right", [premise(prems[0], 0)], ps("p |- p, r"))
        w2 = structural("weakening-left", [premise(prems[0], 0)], ps("r, p |- p"))
        cut = structural("cut", [w1, w2], ps("p, p |- p, p"))
        c1 = structural("contraction-left", [cut], ps("p |- p, p"))
        c2 = structural("contraction-right", [c1], ps("p |- p"))
        assert not has_subformula_property(c2, prems)
        out = enforce_subformula(c2, prems, ps("p |- p"))
        assert has_subformula_property(out, prems)
        assert check(out, GK, prems).ok
        assert out.conclusion == ps("p |- p")

    def test_noop_when_clean(self):
        node = premise(ps("p |- p"), 0)
        assert enforce_subformula(node, [ps("p |- p")], ps("p |- p")) is node

    def test_constant_only_rebuild(self):
        res = derives([], ps("|- T | F"), GB)
        out = enforce_subformula(res.proof, [], ps("|- T | F"))
        assert check(out, GB, []).ok and out.conclusion == ps("|- T | F")

    def test_constant_only_rebuild_from_a_premise(self):
        # no atom resides in |- F or |-, so the cut atom p cannot be renamed
        prems = [ps("|- F")]
        empty = logical("bot-right-elim", [premise(prems[0], 0)], ps("|-"))
        cut = structural("cut", [structural("weakening-right", [empty], ps("|- p")),
                                 structural("weakening-left", [empty], ps("p |-"))], ps("|-"))
        out = normalize(cut, GK, prems, ps("|-"))
        assert out == Proof(ps("|-"), "bot-right-elim", (premise(prems[0], 0),))

    def test_constant_only_rebuild_by_an_axiom(self):
        # enforce_subformula on its own: normalize's introduction tree would
        # close |- T by the axiom before any step with p
        cut = structural("cut", [Proof(ps("|- T, p"), "top-right"), Proof(ps("p |- T"), "top-right")], ps("|- T, T"))
        proof = structural("contraction-right", [cut], ps("|- T"))
        assert check(proof, GK, []).ok
        assert enforce_subformula(proof, [], ps("|- T")) == Proof(ps("|- T"), "top-right")
        assert normalize(proof, GK, [], ps("|- T")) == Proof(ps("|- T"), "top-right")


def _pad(proof: Proof, prems: list, calc, rng) -> Proof:
    """proof wrapped in one structural detour on a compound formula that
    keeps its conclusion: a weakening then contraction of a member, a cut
    against an identity on a member, a cut on a fresh formula between two
    weakenings, or (in a bounded calculus with limited cuts) a limited cut
    on a formula that becomes a new last premise."""
    c = proof.conclusion
    members = [(side, f) for side in ("left", "right") for f in getattr(c, side) if not isinstance(f, Atom)]
    chi = random_formula(rng, ["p", "q"], 2)
    while isinstance(chi, Atom):
        chi = random_formula(rng, ["p", "q"], 2)
    has = {name for name in ("cut", "identity", "limited-cut-left") if calc.rule(name) is not None}
    styles = ["cut"] if "cut" in has else []
    if members:
        styles.append("contract")
        if "identity" in has and "cut" in has:
            styles.append("identity")
    if "limited-cut-left" in has:
        styles.append("limited-cut")
    style = rng.choice(styles)
    if style == "contract":
        side, f = rng.choice(members)
        grown = structural(f"weakening-{side}", [proof], c.add(**{side: [f]}))
        return structural(f"contraction-{side}", [grown], c)
    if style == "identity":
        side, f = rng.choice(members)
        ident = structural("identity", [], Sequent([f], [f]))
        return structural("cut", [proof, ident] if side == "right" else [ident, proof], c)
    if style == "limited-cut":
        # no atom twice: the expansion pool's images of x are injective
        chi = pf(rng.choice(["p & q", "~p", "q | ~p", "~(p & q)", "T & q", "~~p | F"]))
        prems.append(Sequent([], [chi]))
        grown = structural("weakening-left", [proof], c.add(left=[chi]))
        return structural("limited-cut-left", [premise(prems[-1], len(prems) - 1), grown], c)
    left = structural("weakening-right", [proof], c.add(right=[chi]))
    right = structural("weakening-left", [proof], c.add(left=[chi]))
    padded = structural("cut", [left, right], Sequent(c.left + c.left, c.right + c.right))
    for side in ("left", "right"):
        for f in getattr(c, side):
            padded = structural(f"contraction-{side}", [padded], padded.conclusion.remove_one(f, side))
    return padded


def _renamed(p: Proof, names: dict) -> Proof:
    """p with the rule name of each step, or its part before a ``[``,
    renamed by names."""

    def step(node: Proof, kids: tuple) -> Proof:
        head, bracket, rest = node.rule.partition("[")
        return Proof(node.conclusion, names.get(head, head) + bracket + rest, kids, node.premise_index)

    return rebuild(p, step)


class TestNormalize:
    def test_engine_output_is_fixpoint(self, rng):
        for name in CALCULUS_NAMES:
            seen = 0
            for _ in range(15):
                prems = [random_sequent(rng, ["p", "q"], 2)]
                goal = random_sequent(rng, ["p", "q"], 2)
                res = derives(prems, goal, builtin_calculus(name))
                if res.proof is None or res.proof.rule == "premise":
                    continue
                seen += 1
                n = normalize(res.proof, res.calculus, prems, goal)
                assert n == res.proof
            assert seen, name

    @pytest.mark.parametrize("name", ["gk", "gcl", "getl"])
    def test_padded_engine_proofs(self, rng, name):
        done = 0
        while done < 12:
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            res = derives(prems, goal, builtin_calculus(name))
            if not res.verdict:
                continue
            calc, proof = res.calculus, res.proof
            for _ in range(rng.randint(1, 3)):
                proof = _pad(proof, prems, calc, rng)
            assert check(proof, calc, prems).ok
            trace = RewriteTrace()
            n = normalize(proof, calc, prems, goal, trace)
            assert check(n, calc, prems).ok and n.conclusion == goal
            assert is_structurally_atomic(n) and is_analytic_synthetic(n)
            assert has_subformula_property(n, prems)
            assert normalize(n, calc, prems, goal) == n
            assert replay_trace(proof, calc, prems, goal, trace) == n
            assert {e[0] for e in trace.entries} <= {"expand-principal", "atomize-context", "enforce-subformula"}
            done += 1

    def test_cut_against_an_identity_keeps_the_other_table(self, rng):
        done = 0
        while done < 12:
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            compound = [(side, f) for side in ("left", "right") for f in getattr(goal, side) if not isinstance(f, Atom)]
            res = derives(prems, goal, GCL)
            if not (res.verdict and compound):
                continue
            side, f = rng.choice(compound)
            ident = structural("identity", [], Sequent([f], [f]))
            padded = structural("cut", [res.proof, ident] if side == "right" else [ident, res.proof], goal)
            assert normalize(padded, res.calculus, prems, goal) == normalize(res.proof, res.calculus, prems, goal)
            done += 1

    def test_rules_are_told_apart_by_schema(self, rng):
        # gcl with its Identity and Cut renamed normalizes padded proofs as
        # gcl does, up to the names of the steps; an Identity on a compound
        # formula, among others, used to reach the expansion route by its name
        renamed = Calculus("gcl-renamed", tuple(parse_structural_rule(r.render(), name)
                                                for r, name in ((IDENTITY, "id"), (CUT, "kut"))))
        there, back = {"identity": "id", "cut": "kut"}, {"id": "identity", "kut": "cut"}
        done = compound_identities = 0
        while done < 12:
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            res = derives(prems, goal, GCL)
            if not res.verdict:
                continue
            proof = res.proof
            for _ in range(rng.randint(1, 3)):
                proof = _pad(proof, prems, GCL, rng)
            compound_identities += any(n.rule == "identity" and not n.conclusion.is_atomic() for n in proof.nodes())
            n = normalize(_renamed(proof, there), renamed, prems, goal)
            assert check(n, renamed, prems).ok
            assert _renamed(n, back) == normalize(proof, GCL, prems, goal)
            done += 1
        assert compound_identities

    def test_closing_decomposition_comes_first(self):
        # pad-22 of the benchmark's proofs corpus: an or-left introduction
        # with ~T on each branch, weakened by p | q on each side, cut on it
        # and contracted back; ~T alone closes the conclusion
        c = ps("p | ~p, ~T |-")
        inner = logical("or-left-intro", [
            logical("neg-left-intro", [Proof(ps("p |- T"), "top-right")], ps("p, ~T |-")),
            logical("neg-left-intro", [Proof(ps("~p |- T"), "top-right")], ps("~p, ~T |-")),
        ], c)
        chi = pf("p | q")
        padded = structural("cut", [
            structural("weakening-right", [inner], c.add(right=[chi])),
            structural("weakening-left", [inner], c.add(left=[chi])),
        ], ps("p | ~p, p | ~p, ~T, ~T |-"))
        padded = structural("contraction-left", [padded], ps("p | ~p, ~T, ~T |-"))
        padded = structural("contraction-left", [padded], c)
        out = normalize(padded, GCL, [], c)
        assert out == logical("neg-left-intro", [Proof(ps("p | ~p |- T"), "top-right")], c)

    def test_trace_replays(self):
        p1 = premise(ps("|- p & q"), 0)
        p2 = premise(ps("p & q |- r"), 1)
        node = structural("cut", [p1, p2], ps("|- r"))
        prems = [ps("|- p & q"), ps("p & q |- r")]
        trace = RewriteTrace()
        out = normalize(node, GK, prems, ps("|- r"), trace)
        assert trace.entries
        assert replay_trace(node, GK, prems, ps("|- r"), trace) == out
        # the compound cut shared by two parents is rewritten, and recorded, once
        prems.append(ps("r, r |- s"))
        below = structural("cut", [node, premise(prems[2], 2)], ps("r |- s"))
        shared = structural("cut", [node, below], ps("|- s"))
        trace = RewriteTrace()
        out = normalize(shared, GK, prems, ps("|- s"), trace)
        assert trace.entries == [("expand-principal", "|- r", "cut")]
        assert check(out, GK, prems).ok
        assert replay_trace(shared, GK, prems, ps("|- s"), trace) == out

    @pytest.mark.parametrize("name", ["getl", "gecq"])
    @pytest.mark.parametrize("text", ["p & p", "~p | p", "(p & q) | p"])
    def test_bounded_step_whose_formula_repeats_an_atom(self, name, text):
        # an expansion name has one fresh atom per leaf of an image, so the
        # step is expanded over the linear form of its cut formula
        rule = "limited-cut-left" if name == "getl" else "explosive-cut"
        _assert_normalizes(builtin_calculus(name), *_bounded_step(rule, pf(text), [Atom("r")], [Atom("s")]))

    def test_rejects_bad_input(self):
        node = structural("identity", [], ps("p |- p"))
        with pytest.raises(RewriteError):
            normalize(node, GB, [], ps("p |- p"))


def _bounded_step(rule: str, f, g=(), d=()):
    """One step of a rule of getl or gecq on the formula f, in the context
    g |- d for the limited cuts: the proof, its premises and conclusion."""
    g, d = list(g), list(d)
    if rule == "limited-cut-left":  # |- x ; x, G |- D => G |- D
        prems, goal = [Sequent([], [f]), Sequent([f, *g], d)], Sequent(g, d)
    elif rule == "limited-cut-right":  # G |- D, x ; x |- => G |- D
        prems, goal = [Sequent(g, [*d, f]), Sequent([f], [])], Sequent(g, d)
    else:  # explosive-cut: |- x ; x |- => |-
        prems, goal = [Sequent([], [f]), Sequent([f], [])], Sequent()
    return structural(rule, [premise(s, i) for i, s in enumerate(prems)], goal), prems, goal


def _assert_normalizes(calc, proof, prems, goal) -> Proof:
    """normalize's output for a checked proof checks in calc, is
    structurally atomic and analytic-synthetic, and is a fixpoint."""
    assert check(proof, calc, prems).ok
    out = normalize(proof, calc, prems, goal)
    assert check(out, calc, prems).ok and out.conclusion == goal
    assert is_structurally_atomic(out) and is_analytic_synthetic(out)
    assert normalize(out, calc, prems, goal) == out
    return out


BOUNDED_RULES = [("getl", "limited-cut-left"), ("getl", "limited-cut-right"), ("gecq", "explosive-cut")]


class TestExpansionSteps:
    """normalize names each atomic step of a bounded rule on a compound
    formula base[images], which checks in the base calculus at any depth."""

    @pytest.mark.parametrize("name, rule", BOUNDED_RULES)
    @pytest.mark.parametrize("text", ["((p & q) | ~r) & s", "~((p | q) & ~r)", "(p & ~q) | ~(r | s)"])
    def test_depth_three_images(self, name, rule, text):
        _assert_normalizes(builtin_calculus(name), *_bounded_step(rule, pf(text), [Atom("t")], [Atom("u")]))

    def test_step_names(self):
        getl = builtin_calculus("getl")
        out = _assert_normalizes(getl, *_bounded_step("limited-cut-left", pf("((p & q) | ~r) & s"), [Atom("t")], [Atom("u")]))
        assert {n.rule for n in out.nodes() if is_structural(n.rule)} == {"limited-cut-left[(x0 & x1 | ~x2) & x3]"}
        # an atomic image keeps the base name, a compound context or not
        out = _assert_normalizes(getl, *_bounded_step("limited-cut-right", Atom("p"), [pf("q & r")], [Atom("s")]))
        assert {n.rule for n in out.nodes() if is_structural(n.rule)} == {"limited-cut-right"}

    def test_step_with_several_conclusions_is_refused(self):
        # "p |- q => |- r" at r := s & t has the two conclusions |- s and
        # |- t; no one name covers that expansion
        prems, goal = [ps("p |- q")], ps("|- s & t")
        proof = structural(HILBERT.specific[0].name, [premise(prems[0], 0)], goal)
        assert check(proof, HILBERT, prems).ok
        with pytest.raises(InexpandableNode, match="several conclusions"):
            normalize(proof, HILBERT, prems, goal)

    def test_random_images_up_to_depth_three(self, rng):
        for i in range(90):
            name, rule = BOUNDED_RULES[i % len(BOUNDED_RULES)]
            f = random_formula(rng, ["p", "q", "r"], rng.randint(0, 3))
            g = [random_formula(rng, ["p", "q", "r"], 1) for _ in range(rng.randint(0, 1))]
            d = [random_formula(rng, ["p", "q", "r"], 1) for _ in range(rng.randint(0, 1))]
            proof, prems, goal = _bounded_step(rule, f, g, d)
            out = _assert_normalizes(builtin_calculus(name), proof, prems, goal)
            # the names resolve in the effective calculus too, pool or none
            assert check(out, effective_calculus(builtin_calculus(name))[0], prems).ok


class TestEliminateCuts:
    def test_lem_proof(self):
        res = derives([], ps("|- p | ~p"), GCL)
        n = normalize(res.proof, GCL, [], ps("|- p | ~p"))
        out = eliminate_cuts(n)
        rules = {x.rule for x in out.nodes()}
        assert "cut" not in rules
        assert not any(is_elim(r) for r in rules)
        assert check(out, GCL, []).ok

    def test_commutativity_taut(self):
        goal = ps("|- ~(p & q) | (q & p)")
        res = derives([], goal, GCL)
        out = eliminate_cuts(normalize(res.proof, GCL, [], goal))
        assert check(out, GCL, []).ok
        assert all(x.rule != "cut" and not is_elim(x.rule) for x in out.nodes())

    def test_requires_empty_premises(self):
        res = derives([ps("|- p")], ps("|- p | q"), GCL)
        with pytest.raises(RewriteError):
            eliminate_cuts(res.proof)


def _weakened_cut_tower(height: int) -> tuple[Proof, Proof, list[Sequent]]:
    """s0 = cut(|- p, p |-), s(k+1) = cut(s(k) weakened by x on the right,
    s(k) weakened by x on the left): 3 * height + 3 distinct nodes,
    6 * 2**height - 3 as a tree. Returns the tower, s0 and the premises."""
    prems = [ps("|- p"), ps("p |-")]
    base = structural("cut", [premise(prems[0], 0), premise(prems[1], 1)], Sequent())
    s = base
    for _ in range(height):
        s = structural(
            "cut",
            [structural("weakening-right", [s], ps("|- x")), structural("weakening-left", [s], ps("x |-"))],
            Sequent(),
        )
    return s, base, prems


class TestSimplifyRefutation:
    def test_shared_proof(self):
        tower, base, prems = _weakened_cut_tower(40)
        assert len(list(tower.nodes())) == 123 and tower.size() == 6 * 2**40 - 3
        start = time.perf_counter()
        out = simplify_refutation(tower)
        assert time.perf_counter() - start < 1
        assert out == base and check(out, GCL, prems).ok

    def test_gratuitous_weakening_removed(self):
        p1 = premise(ps("|- p"), 0)
        w = structural("weakening-right", [p1], ps("|- p, p"))
        cut1 = structural("cut", [w, premise(ps("p |-"), 1)], ps("|- p"))
        cut2 = structural("cut", [cut1, premise(ps("p |-"), 1)], Sequent())
        out = simplify_refutation(cut2)
        assert out == structural("cut", [premise(ps("|- p"), 0), premise(ps("p |-"), 1)], Sequent())

    def test_contraction_then_cut_unchanged(self):
        pa = premise(ps("|- p, p"), 0)
        ca = structural("contraction-right", [pa], ps("|- p"))
        cb = structural("cut", [ca, premise(ps("p |-"), 1)], Sequent())
        assert simplify_refutation(cb) == cb

    def test_contraction_permutes_above_cut(self):
        pa = premise(ps("|- p, q, q"), 0)
        pb = premise(ps("p |-"), 1)
        cut = structural("cut", [pa, pb], ps("|- q, q"))
        c = structural("contraction-right", [cut], ps("|- q"))
        qb = premise(ps("q |-"), 2)
        final = structural("cut", [c, qb], Sequent())
        prems = [ps("|- p, q, q"), ps("p |-"), ps("q |-")]
        assert check(final, GCL, prems).ok
        out = simplify_refutation(final)
        assert check(out, GCL, prems).ok and out.conclusion == Sequent()
        # contraction now sits directly on the premise side
        for node in out.nodes():
            if node.rule == "contraction-right":
                assert node.children[0].rule == "premise"

    def test_contraction_on_the_cut_atom_permutes(self):
        # contracted atom equals the cut atom; the pair lives in one premise
        pa = premise(ps("|- p, p"), 0)
        pb = premise(ps("p |- p"), 1)
        cut = structural("cut", [pa, pb], ps("|- p, p"))
        c = structural("contraction-right", [cut], ps("|- p"))
        final = structural("cut", [c, premise(ps("p |-"), 2)], Sequent())
        prems = [ps("|- p, p"), ps("p |- p"), ps("p |-")]
        assert check(final, GCL, prems).ok
        out = simplify_refutation(final)
        assert check(out, GCL, prems).ok and out.conclusion == Sequent()

    def test_merge_contraction_raises(self):
        # contraction of occurrences coming from both cut premises cannot be
        # permuted upward; the reshaping reports it honestly
        pa = premise(ps("q |- p"), 0)
        pb = premise(ps("p, q |-"), 1)
        cut = structural("cut", [pa, pb], ps("q, q |-"))
        c = structural("contraction-left", [cut], ps("q |-"))
        final = structural("cut", [premise(ps("|- q"), 2), c], Sequent())
        with pytest.raises(RefutationShapeError):
            simplify_refutation(final)

    def test_identity_fed_cut_dropped(self):
        ident = structural("identity", [], ps("p |- p"))
        other = premise(ps("p, p |-"), 0)
        cut1 = structural("cut", [ident, other], ps("p, p |-"))
        chain = structural("cut", [premise(ps("|- p"), 1), cut1], ps("p |-"))
        final = structural("cut", [premise(ps("|- p"), 1), chain], Sequent())
        out = simplify_refutation(final)
        assert all(n.rule != "identity" for n in out.nodes())


    def test_compound_cut_step_refused(self):
        # normalize makes the Cut on p & q one cut[x0 & x1] step, which
        # contracts its premises' shared context below its cuts
        prems = [ps("|- p"), ps("|- q"), ps("p, q |-")]
        pq = logical("and-right-intro", [premise(prems[0], 0), premise(prems[1], 1)], ps("|- p & q"))
        npq = logical("and-left-intro", [premise(prems[2], 2)], ps("p & q |-"))
        out = normalize(structural("cut", [pq, npq], Sequent()), GCL, prems, Sequent())
        assert out.rule == "cut[x0 & x1]"
        with pytest.raises(RewriteError, match=r"cut\[x0 & x1\]"):
            simplify_refutation(out)


def _separated_compound_cut(left: Proof, conclusion: Sequent) -> Proof:
    """separate_identity_cut of the normalized Cut on q & r between left
    and the premise q & r |- s, checked by ``_assert_separated``."""
    prems = [ps("q & r |- s")]
    cut = structural("cut", [left, premise(prems[0], 0)], conclusion)
    norm = normalize(cut, GCL, prems, conclusion)
    assert any(n.rule == "cut[x0 & x1]" for n in norm.nodes())
    out = separate_identity_cut(norm, GCL)
    _assert_separated(out, prems, conclusion)
    return out


def _assert_separated(p: Proof, prems: list, conclusion: Sequent) -> None:
    """p proves conclusion from prems, and no Identity sits above a Cut
    step, atomic or cut[...]."""
    assert p.conclusion == conclusion and check(p, GCL, prems).ok
    is_cut = lambda n: n.rule.partition("[")[0] == "cut"
    assert not any(below and n.rule == "identity" for n, below in nodes_under(p, is_cut))


class TestSeparateIdentityCut:
    def test_shared_proof(self):
        tower, _, prems = _weakened_cut_tower(40)
        start = time.perf_counter()
        out = separate_identity_cut(tower, GCL)
        assert time.perf_counter() - start < 1
        assert out == tower and check(out, GCL, prems).ok

    def test_weakened_identity_cut_on_other_atom(self):
        ident = structural("identity", [], ps("p |- p"))
        w = structural("weakening-right", [ident], ps("p |- p, q"))
        other = premise(ps("q, p |- p"), 0)
        cq = structural("cut", [w, other], ps("p, p |- p, p"))
        out = separate_identity_cut(cq, GCL)
        assert check(out, GCL, [ps("q, p |- p")]).ok
        assert out.conclusion == cq.conclusion
        for node in out.nodes():
            assert node.rule != "cut"

    def test_cut_free_unchanged(self):
        node = structural("identity", [], ps("p |- p"))
        assert separate_identity_cut(node, GCL) == node

    def test_identity_free_unchanged(self):
        node = structural("cut", [premise(ps("|- p"), 0), premise(ps("p |- q"), 1)], ps("|- q"))
        assert separate_identity_cut(node, GCL) == node

    def test_no_branch_with_both(self, rng):
        for _ in range(20):
            prems = [random_sequent(rng, ["p", "q"], 2)]
            goal = random_sequent(rng, ["p", "q"], 2)
            res = derives(prems, goal, GCL)
            if res.proof is None or res.proof.rule == "premise":
                continue
            out = separate_identity_cut(res.proof, GCL)
            assert check(out, GCL, prems).ok

            def branch_rules(node, acc):
                acc = acc | {node.rule}
                if not node.children:
                    yield acc
                for c in node.children:
                    yield from branch_rules(c, acc)

            for rules in branch_rules(out, frozenset()):
                assert not ({"identity", "cut"} <= rules)

    def test_compound_cut_identity_on_a_context_atom(self):
        # p |- p weakened by q & r: each cut[x0 & x1] child is that Identity
        ident = structural("identity", [], ps("p |- p"))
        left = structural("weakening-right", [ident], ps("p |- p, q & r"))
        out = _separated_compound_cut(left, ps("p |- p, s"))
        assert out == structural("weakening-right", [ident], ps("p |- p, s"))

    def test_compound_cut_identity_on_a_consumed_atom(self):
        # q, r |- q & r from Identities: the cut consumes both Identity
        # atoms, and the premise's child fits in the conclusion
        iq = structural("weakening-left", [structural("identity", [], ps("q |- q"))], ps("q, r |- q"))
        ir = structural("weakening-left", [structural("identity", [], ps("r |- r"))], ps("q, r |- r"))
        left = logical("and-right-intro", [iq, ir], ps("q, r |- q & r"))
        out = _separated_compound_cut(left, ps("q, r |- s"))
        assert {n.rule for n in out.nodes()} == {"and-left-elim", "premise"}

    def test_compound_cut_with_no_fitting_child_raises(self):
        # the Identity feeds q, consumed, while the other children keep r
        iq = structural("weakening-left", [structural("identity", [], ps("q |- q"))], ps("q, t |- q"))
        tr = structural("weakening-left", [premise(ps("t |- r"), 1)], ps("q, t |- r"))
        left = logical("and-right-intro", [iq, tr], ps("q, t |- q & r"))
        prems = [ps("q & r |- s"), ps("t |- r")]
        cut = structural("cut", [left, premise(prems[0], 0)], ps("q, t |- s"))
        norm = normalize(cut, GCL, prems, cut.conclusion)
        with pytest.raises(RewriteError, match=r"identity on q from cut\[x0 & x1\]"):
            separate_identity_cut(norm, GCL)

    def test_padded_normalized_proofs(self, rng):
        compound = 0
        for _ in range(60):
            prems = [random_sequent(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            goal = random_sequent(rng, ["p", "q"], 2)
            res = derives(prems, goal, GCL)
            if not res.verdict:
                continue
            proof = res.proof
            for _ in range(rng.randint(1, 3)):
                proof = _pad(proof, prems, GCL, rng)
            norm = normalize(proof, GCL, prems, goal)
            compound += any(n.rule.startswith("cut[") for n in norm.nodes())
            _assert_separated(separate_identity_cut(norm, GCL), prems, goal)
        assert compound


def _refutations(calc, seed: str, count: int):
    """The first ``count`` refutable sets of non-empty atomic sequents over
    p, q and r, drawn from the seed, each with its refutation in calc."""
    rng = random.Random(seed)
    atoms = [Atom(a) for a in "pqr"]
    out = []
    while len(out) < count:
        prems = []
        while len(prems) < rng.randint(3, 5):
            s = Sequent(rng.sample(atoms, rng.randint(0, 2)), rng.sample(atoms, rng.randint(0, 2)))
            if not s.is_empty():
                prems.append(s)
        res = refutes(prems, calc)
        if res.verdict:
            out.append((prems, res.proof))
    return out


class TestRulesKnownBySchema:
    """Identity and Cut renamed, with their schema atoms and slots: the
    passes know them by their schemas, not by their names."""

    def test_identity_on_another_atom_normalizes(self):
        calc = Calculus("glp-y", (parse_structural_rule("=> y |- y", "identity"),))
        goal = ps("p & q |- p & q")
        out = normalize(structural("identity", [], goal), calc, [], goal)
        assert check(out, calc, []).ok and is_structurally_atomic(out)

    def test_separate_renamed_identity_and_cut(self):
        calc = renamed(GCL)
        ident = structural("id", [], ps("p |- p"))
        prems = [ps("q |- r")]
        kut = structural("kut", [structural("weakening-right", [ident], ps("p |- p, q")), premise(prems[0], 0)],
                         ps("p |- p, r"))
        assert check(kut, calc, prems).ok
        out = separate_identity_cut(kut, calc)
        assert out == structural("weakening-right", [ident], ps("p |- p, r"))
        assert check(out, calc, prems).ok

    def test_simplify_renamed_refutations(self):
        calc = renamed(GCL)
        back = {new: old for old, new in RENAMED_RULES.items()}
        reshaped = 0
        for (prems, want), (_, got) in zip(_refutations(GCL, "gcl", 40), _refutations(calc, "gcl", 40)):
            try:
                expected = simplify_refutation(want, GCL)
            except RefutationShapeError:
                with pytest.raises(RefutationShapeError):
                    simplify_refutation(got, calc)
                continue
            out = simplify_refutation(got, calc)
            assert check(out, calc, prems).ok
            assert rebuild(out, lambda n, kids: Proof(n.conclusion, back.get(n.rule, n.rule), kids,
                                                       n.premise_index)) == expected
            reshaped += any(n.rule == "kut" for n in out.nodes())
        assert reshaped >= 30
        # as test_identity_fed_cut_dropped, renamed
        kut = lambda kids, s: structural("kut", kids, ps(s))
        chain = kut([premise(ps("|- p"), 1), kut([structural("id", [], ps("p |- p")), premise(ps("p, p |-"), 0)],
                                                  "p, p |-")], "p |-")
        out = simplify_refutation(kut([premise(ps("|- p"), 1), chain], "|-"), calc)
        assert check(out, calc, [ps("p, p |-"), ps("|- p")]).ok and all(n.rule != "id" for n in out.nodes())
        # read in the built-in names, kut and id are no rules
        with pytest.raises(RewriteError, match="unexpected rule in refutation: kut"):
            simplify_refutation(kut([premise(ps("|- p"), 1), chain], "|-"))

    def test_cut_shaped_step_of_another_rule_refused(self):
        # r is no cut: its first premise needs two formulas on the right, so
        # reshaping it as a Cut, dropping the weakened q, leaves no r step
        r = parse_structural_rule("|- x, y ; x |- => |- y", "r")
        calc = Calculus("c", (CUT, r))
        prems = [ps("|- p"), ps("p |-"), ps("q |-")]
        weak = structural("weakening-right", [premise(prems[0], 0)], ps("|- p, q"))
        refutation = structural("cut", [structural("r", [weak, premise(prems[1], 1)], ps("|- q")),
                                        premise(prems[2], 2)], ps("|-"))
        assert check(refutation, calc, prems).ok
        with pytest.raises(RewriteError, match="unexpected rule in refutation: r"):
            simplify_refutation(refutation, calc)

    def test_limited_cut_refutations_reshape(self):
        # a limited-cut-left step on an atom is a Cut; a context cut on a
        # compound clause is not, and is refused
        getl = builtin_calculus("getl")
        reshaped = refused = 0
        for prems, proof in _refutations(getl, "getl", 60):
            if any("[" in n.rule for n in proof.nodes()):
                with pytest.raises(RewriteError, match=r"limited-cut-left\["):
                    simplify_refutation(proof, getl)
                refused += 1
                continue
            out = simplify_refutation(proof, getl)
            assert check(out, getl, prems).ok
            reshaped += any(n.rule == "limited-cut-left" for n in proof.nodes())
        assert reshaped >= 10 and refused >= 10
