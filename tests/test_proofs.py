"""Proof checking, shape predicates, builders and serialization."""

import pickle
import random
import time
from copy import deepcopy

import pytest

from supercut.engine import derives
from supercut.matrices import builtin, holds_sequent
from supercut.proofs import (
    Proof,
    build_intro,
    check,
    elim,
    elim_targets,
    has_subformula_property,
    intro_derive,
    is_analytic_synthetic,
    is_axiom,
    is_elim,
    is_structurally_atomic,
    logical,
    phase_split,
    premise,
    proof_from_dict,
    proof_to_dict,
    proof_to_dot,
    rebuild,
    structural,
    weaken_to,
)
from supercut import proofs, rules
from supercut.rewrite import (
    RewriteTrace,
    make_analytic_synthetic,
    normalize,
)
from supercut.rules import ROWS, at_set, builtin_calculus
from supercut.syntax import And, Atom, Formula, Or, Sequent, SupercutError, parse_formula as pf, parse_sequent as ps

from conftest import random_sequent, wide_context_cut

GB = builtin_calculus("gb")
GLP = builtin_calculus("glp")
GCL = builtin_calculus("gcl")


def interderivability_fixtures():
    """The four derivations showing intro and elim rules interderivable in
    the presence of Identity and Cut, instantiated at p, q with context r/s."""
    prem_left = ps("p, q, r |- s")
    id1 = structural("identity", [], ps("p & q |- p & q"))
    e1 = logical("and-right-elim", [id1], ps("p & q |- q"))
    id2 = structural("identity", [], ps("p & q |- p & q"))
    e2 = logical("and-right-elim", [id2], ps("p & q |- p"))
    cut1 = structural("cut", [e2, premise(prem_left, 0)], ps("p & q, q, r |- s"))
    cut2 = structural("cut", [e1, cut1], ps("p & q, p & q, r |- s"))
    left_intro_sim = structural("contraction-left", [cut2], ps("p & q, r |- s"))

    prem2 = ps("p & q, r |- s")
    idp = structural("identity", [], ps("p |- p"))
    w1 = structural("weakening-left", [idp], ps("p, q |- p"))
    idq = structural("identity", [], ps("q |- q"))
    w2 = structural("weakening-left", [idq], ps("p, q |- q"))
    ri = logical("and-right-intro", [w1, w2], ps("p, q |- p & q"))
    left_elim_sim = structural("cut", [ri, premise(prem2, 0)], ps("p, q, r |- s"))

    prem3a, prem3b = ps("r |- s, q"), ps("r |- s, p")
    id3 = structural("identity", [], ps("p & q |- p & q"))
    e3 = logical("and-left-elim", [id3], ps("p, q |- p & q"))
    cut3 = structural("cut", [premise(prem3b, 1), e3], ps("q, r |- s, p & q"))
    cut4 = structural("cut", [premise(prem3a, 0), cut3], ps("r, r |- s, s, p & q"))
    c1 = structural("contraction-left", [cut4], ps("r |- s, s, p & q"))
    right_intro_sim = structural("contraction-right", [c1], ps("r |- s, p & q"))

    prem4 = ps("r |- s, p & q")
    id4 = structural("identity", [], ps("p |- p"))
    w4 = structural("weakening-left", [id4], ps("p, q |- p"))
    e4 = logical("and-left-intro", [w4], ps("p & q |- p"))
    right_elim_sim = structural("cut", [premise(prem4, 0), e4], ps("r |- s, p"))

    return [
        (left_intro_sim, [prem_left]),
        (left_elim_sim, [prem2]),
        (right_intro_sim, [prem3a, prem3b]),
        (right_elim_sim, [prem4]),
    ]


class TestCheck:
    def test_interderivability_fixtures_check_in_gcl(self):
        for proof, prems in interderivability_fixtures():
            res = check(proof, GCL, prems)
            assert res.ok, res

    def test_identity_requires_glp(self):
        node = structural("identity", [], ps("p |- p"))
        assert check(node, GLP, []).ok
        res = check(node, GB, [])
        assert not res.ok and "not in calculus" in res.reason

    def test_arity_error(self):
        bad = Proof(ps("|- p & q"), "and-right-intro", (premise(ps("|- p"), 0),))
        res = check(bad, GB, [ps("|- p")])
        assert not res.ok and "arity" in res.reason

    def test_premise_index(self):
        node = premise(ps("|- p"), 0)
        assert check(node, GB, [ps("|- p")]).ok
        assert not check(node, GB, [ps("|- q")]).ok
        assert not check(node, GB, []).ok
        anon = premise(ps("|- p"))
        assert check(anon, GB, [ps("|- q"), ps("|- p")]).ok

    def test_axioms_carry_context(self):
        assert check(Proof(ps("g |- d, T"), "top-right"), GB, []).ok
        assert check(Proof(ps("F, g |- d"), "bot-left"), GB, []).ok
        assert not check(Proof(ps("g |- d"), "top-right"), GB, []).ok

    @pytest.mark.parametrize("proof, reason", [
        (Proof(ps("|- p"), "premise", (premise(ps("|- p"), 0),), 0), "premise node with children"),
        (Proof(ps("|- T"), "top-right", (premise(ps("|- p"), 0),)), "axiom with children"),
        (Proof(ps("F |-"), "bot-left", (premise(ps("|- p"), 0),)), "axiom with children"),
        (Proof(ps("p |-"), "bot-left"), "no bottom on the left"),
        (structural("weakening-left", [premise(ps("|- p"), 0)] * 2, ps("q |- p")),
         "arity: weakening-left expects 1 premises"),
    ], ids=["premise", "top-right", "bot-left", "no-bottom", "structural-arity"])
    def test_fault_reasons(self, proof, reason):
        res = check(proof, GB, [ps("|- p")])
        assert (res.ok, res.path, res.reason) == (False, (), reason)

    def test_leftmost_innermost_error(self):
        bad_leaf = Proof(ps("|- q"), "top-right")
        node = structural("weakening-left", [bad_leaf], ps("p |- q"))
        res = check(node, GB, [])
        assert not res.ok and res.path == (0,)

    def test_soundness_against_semantics(self, rng):
        # every checked fixture is semantically valid in the matching logic
        for proof, prems in interderivability_fixtures():
            assert holds_sequent(builtin("cl"), prems, proof.conclusion)

    def test_subtrees_check_against_their_leaves(self):
        for proof, _ in interderivability_fixtures():
            for node in proof.nodes():
                leaves = sorted(node.premise_leaves(), key=lambda s: s.render())
                anon = _strip_indices(node)
                assert check(anon, GCL, leaves).ok


def _cut_tower(height: int) -> Proof:
    """d0 = identity on p, d(k+1) = cut(dk, dk): height + 1 distinct nodes,
    2**(height + 1) - 1 as a tree."""
    d = structural("identity", [], ps("p |- p"))
    for _ in range(height):
        d = structural("cut", [d, d], ps("p |- p"))
    return d


class TestWideSteps:
    def test_permuted_context_cut_step(self, rng):
        # schema atom x<i> takes the i-th atom of a shuffled list: name order
        # pairs the core's atoms with the wrong side premises throughout
        proof, premises = wide_context_cut(200, rng)
        getl = builtin_calculus("getl")
        assert check(proof, getl, premises).ok
        # one side premise that names another atom breaks the step
        broken = list(premises)
        broken[7] = Sequent(broken[7].left, (Atom("e"),))
        leaves = tuple(premise(broken[c.premise_index], c.premise_index) for c in proof.children)
        res = check(Proof(proof.conclusion, proof.rule, leaves), getl, broken)
        assert not res.ok and res.path == () and res.reason == f"not an instance of {proof.rule}"

    def test_failure_after_sound_siblings(self, rng):
        # checking resumes after the last sound child: the first failure is
        # still the leftmost innermost one
        proof, premises = wide_context_cut(50, rng)
        bad = Proof(proof.children[30].conclusion, "top-right")
        children = proof.children[:30] + (bad,) + proof.children[31:]
        res = check(Proof(proof.conclusion, proof.rule, children), builtin_calculus("getl"), premises)
        assert not res.ok and res.path == (30,) and res.reason == "no top on the right"

    def test_wide_step_does_not_recurse(self, rng):
        proof, premises = wide_context_cut(2000, rng)
        assert check(proof, builtin_calculus("getl"), premises).ok

    @pytest.mark.parametrize("read_apart", [False, True])
    def test_work_grows_linearly_with_width(self, monkeypatch, read_apart):
        # formula comparisons and hashes while checking the step; with its
        # premises read apart, no premise shares a formula object with another
        getl = builtin_calculus("getl")
        work = {}
        for width in (200, 400):
            proof, premises = wide_context_cut(width, random.Random(width))
            if read_apart:
                premises = [ps(s.render()) for s in premises]
                leaves = tuple(premise(premises[c.premise_index], c.premise_index) for c in proof.children)
                proof = Proof(proof.conclusion, proof.rule, leaves)
            getl.rule(proof.rule)  # the expansion, built before counting
            calls = []
            with monkeypatch.context() as m:
                for name in ("__eq__", "__hash__"):
                    method = getattr(Formula, name)
                    m.setattr(Formula, name, lambda *a, method=method: calls.append(1) or method(*a))
                assert check(proof, getl, premises).ok
            work[width] = len(calls)
        assert work[400] <= 2.2 * work[200] and work[400] <= 20 * 400


class TestSharing:
    def test_passes_visit_each_distinct_node_once(self, monkeypatch):
        tower = _cut_tower(60)
        assert len(list(tower.nodes())) == 61
        assert tower.size() == 2**61 - 1
        calls = []
        match = rules.match_structural
        monkeypatch.setattr(rules, "match_structural", lambda *a, **k: calls.append(1) or match(*a, **k))
        assert check(tower, GCL, []).ok
        assert len(calls) <= 61
        assert tower.premise_leaves() == frozenset()
        assert is_structurally_atomic(tower) and is_analytic_synthetic(tower)
        out = normalize(tower, GCL, [], ps("p |- p"))
        assert check(out, GCL, []).ok and out.size() == 2**61 - 1

    def test_equal_subtrees_read_as_one_node(self, monkeypatch):
        blob = proof_to_dict(_cut_tower(3))
        assert blob["children"][0] == blob["children"][1] and blob["children"][0] is not blob["children"][1]
        tower = proof_from_dict(blob)
        assert tower.children[0] is tower.children[1] and tower.conclusion is tower.children[0].conclusion
        assert len(list(tower.nodes())) == 4 and tower.size() == 15
        assert proof_to_dict(tower) == blob
        calls = []
        match = rules.match_structural
        monkeypatch.setattr(rules, "match_structural", lambda *a, **k: calls.append(1) or match(*a, **k))
        assert check(tower, GCL, []).ok
        assert len(calls) == 4
        # premise leaves that differ only in their index stay apart
        cut = proof_from_dict(proof_to_dict(structural("cut", [premise(ps("p |- p"), 0), premise(ps("p |- p"), 1)], ps("p |- p"))))
        assert cut.children[0] is not cut.children[1] and cut.children[0].conclusion is cut.children[1].conclusion

    def test_hash_is_stored_once(self):
        def chain(levels: int) -> Proof:
            d = premise(ps("q |- p"))
            for i in range(levels):
                d = structural("contraction-left" if i % 2 else "weakening-left", [d], ps("q, q |- p" if i % 2 == 0 else "q |- p"))
            return d

        d, e = chain(3000), chain(3000)
        assert d is not e and d == e and hash(d) == hash(e)
        nodes = list(chain(3000).nodes())
        t0 = time.perf_counter()
        hashes = [hash(node) for node in reversed(nodes)]  # the premise first
        assert time.perf_counter() - t0 < 0.1
        assert hashes[-1] == hash(d) and len(set(hashes)) == 3001
        # the stored hash is in neither repr nor pickle
        w = structural("weakening-left", [premise(ps("|- p"), 0)], ps("q |- p"))
        hash(w)
        assert "_hash" not in repr(w) and "_hash" not in str(pickle.dumps(w))
        assert pickle.loads(pickle.dumps(w)) == w and hash(pickle.loads(pickle.dumps(w))) == hash(w)

    def test_equality_is_over_distinct_nodes(self):
        def tree(leaves: list[Proof]) -> Proof:
            # the cut tower over the leaves, left to right, with no node shared
            while len(leaves) > 1:
                leaves = [structural("cut", pair, ps("p |- p")) for pair in zip(leaves[::2], leaves[1::2])]
            return leaves[0]

        def ident(index=None) -> Proof:
            return Proof(ps("p |- p"), "identity", (), index)

        tower, apart = _cut_tower(4), tree([ident() for _ in range(16)])
        assert len(list(tower.nodes())) == 5 and len(list(apart.nodes())) == apart.size() == tower.size() == 31
        assert tower == apart and apart == tower and hash(tower) == hash(apart)
        # one leaf with a premise index; then that leaf swapped with its sibling
        odd = tree([ident(0)] + [ident() for _ in range(15)])
        swapped = tree([ident(), ident(0)] + [ident() for _ in range(14)])
        assert tower != odd and odd != tower and not tower == odd
        assert odd != swapped and swapped != tower and not swapped == odd

    def test_dot_is_over_distinct_nodes(self):
        # the tower read as a tree has 2**17 - 1 nodes; DOT has one line per
        # distinct node and one per child of each distinct node
        lines = proof_to_dot(_cut_tower(16)).splitlines()
        nodes = [line.split()[0] for line in lines if "[label=" in line and " -> " not in line]
        edges = [line.split()[0:3:2] for line in lines if " -> " in line]
        assert len(lines) == 52 and len(nodes) == len(set(nodes)) == 17 and len(edges) == 32
        assert all(end in nodes for edge in edges for end in edge)

    def test_deep_chain_pickles_and_deep_copies(self):
        # 3,001 levels: premise, then alternating weakening and contraction
        d = premise(ps("q |- p"), 0)
        for i in range(3000):
            d = structural("contraction-left" if i % 2 else "weakening-left", [d], ps("q, q |- p" if i % 2 == 0 else "q |- p"))
        for e in (pickle.loads(pickle.dumps(d)), deepcopy(d)):
            assert e == d and e is not d and hash(e) == hash(d) and check(e, GCL, [ps("q |- p")]).ok
        # a shared subproof stays shared
        tower = _cut_tower(60)
        for out in (pickle.loads(pickle.dumps(tower)), deepcopy(tower)):
            assert out == tower and out.children[0] is out.children[1]

    def test_rebuild_keeps_sharing(self):
        tower = _cut_tower(60)
        out = rebuild(tower, lambda node, kids: Proof(node.conclusion, node.rule, kids, node.premise_index))
        assert out is not tower and out.children[0] is out.children[1]
        assert out.size() == tower.size()

    def test_shared_failure_reports_the_leftmost_path(self):
        bad = structural("cut", [premise(ps("|- p")), premise(ps("p |- q"))], ps("|- q"))
        node = structural("cut", [structural("weakening-right", [bad], ps("|- q, r")), bad], ps("|- q"))
        res = check(node, GCL, [ps("|- p")])
        assert not res.ok and res.path == (0, 0, 1)

    def test_deep_chain_does_not_overflow(self):
        d = structural("weakening-left", [premise(ps("|- p"))], ps("q |- p"))
        for _ in range(5000):
            d = structural("contraction-left", [structural("weakening-left", [d], ps("q, q |- p"))], ps("q |- p"))
        assert check(d, GCL, [ps("|- p")]).ok
        assert d.size() == len(list(d.nodes())) == 2 * 5000 + 2
        assert is_structurally_atomic(d) and is_analytic_synthetic(d)

    def test_deep_chains_compare_hash_and_repr(self):
        # 3,001 nodes, one per level: premise, then alternating weakening
        # and contraction on the left
        def chain(index: int) -> Proof:
            d = structural("weakening-left", [premise(ps("|- p"), index)], ps("q |- p"))
            for _ in range(1499):
                d = structural("contraction-left", [structural("weakening-left", [d], ps("q, q |- p"))], ps("q |- p"))
            return structural("weakening-left", [d], ps("q, q |- p"))

        d, e, other = chain(0), chain(0), chain(1)
        assert d is not e and d.size() == 3001
        assert d == e and not d != e and hash(d) == hash(e)
        assert d != other and not d == other
        assert repr(d) == repr(e) != repr(other)
        assert repr(d).count("Proof(") == 3001
        # the dataclass form
        leaf = premise(ps("|- p"), 0)
        assert repr(leaf) == (
            "Proof(conclusion=Sequent(left=(), right=(Atom(name='p'),)), rule='premise', children=(), premise_index=0)"
        )
        w = structural("weakening-left", [leaf], ps("q |- p"))
        assert repr(w) == (
            "Proof(conclusion=Sequent(left=(Atom(name='q'),), right=(Atom(name='p'),)), rule='weakening-left', "
            f"children=({leaf!r},), premise_index=None)"
        )
        assert repr(structural("cut", [w, leaf], ps("|- p"))).endswith(f"children=({w!r}, {leaf!r}), premise_index=None)")


def _count_matches(monkeypatch) -> list:
    """The calls to rules.match_logical made from here on."""
    calls: list = []
    match = rules.match_logical
    monkeypatch.setattr(rules, "match_logical", lambda *a: calls.append(a) or match(*a))
    return calls


class TestConstruction:
    """Builders make each logical step from its decomposition row, so only
    check and the name-based ``logical`` re-match a step."""

    def test_builders_do_not_rematch(self, monkeypatch, rng):
        calls = _count_matches(monkeypatch)
        for _ in range(40):
            s = random_sequent(rng, ["p", "q"], 2)
            chains = elim_targets(premise(s, 0))
            for leaf, chain in chains.items():
                assert chain.conclusion == leaf
            build_intro(s, premise)
        assert calls == []

    def test_normalize_rematches_only_in_check(self, monkeypatch):
        fixtures = interderivability_fixtures()
        calls = _count_matches(monkeypatch)
        monkeypatch.setattr(proofs, "_check_matches", lambda *a: (proofs.OK, {}))
        trace = RewriteTrace()
        outs = [normalize(proof, GCL, prems, proof.conclusion, trace) for proof, prems in fixtures]
        assert "expand-principal" in {entry[0] for entry in trace.entries}
        # make_analytic_synthetic is the same fold over a structurally
        # atomic proof, and re-matches nothing either
        row, f = ROWS[And, "right"], pf("p & q")
        detour = elim(row, build_intro(ps("r |- p & q"), premise), f, 1)
        assert make_analytic_synthetic(detour) == premise(ps("r |- q"))
        assert calls == []
        monkeypatch.undo()
        for out, (proof, prems) in zip(outs, fixtures):
            assert check(out, GCL, prems).ok and out.conclusion == proof.conclusion

    def test_normalize_matches_each_structural_node_once(self, monkeypatch, rng):
        # check matches each structural node of the input, and the fold that
        # puts the proof into three-phase form reuses those matches
        jobs = [(proof, GCL, prems) for proof, prems in interderivability_fixtures()]
        jobs.append(_compound_cut_tower(8)[:3])
        for calc in (GB, GLP, GCL):
            for _ in range(10):
                prems, goal = [random_sequent(rng, ["p", "q"], 2)], random_sequent(rng, ["p", "q"], 2)
                res = derives(prems, goal, calc)
                if res.verdict:
                    jobs.append((res.proof, res.calculus, prems))
        events = set()
        match, check_matches = rules.match_structural, proofs._check_matches
        for proof, calc, prems in jobs:
            inputs = [n for n in proof.nodes() if proofs.is_structural(n.rule)]
            calls, checked, trace = [], [], RewriteTrace()
            monkeypatch.setattr(rules, "match_structural", lambda *a, **k: calls.append(1) or match(*a, **k))
            monkeypatch.setattr(proofs, "_check_matches", lambda *a: checked.append(len(calls)) or check_matches(*a))
            normalize(proof, calc, prems, proof.conclusion, trace)
            monkeypatch.undo()
            assert checked == [0] and len(calls) == len(inputs)
            # one trace event per non-atomic structural step of the input
            expanded = [e for e in trace.entries if e[0] != "enforce-subformula"]
            assert len(expanded) == sum(not proofs.is_atomic_step(n) for n in inputs)
            events |= {e[0] for e in expanded}
        assert events == {"expand-principal", "atomize-context"}

    def test_check_matches_each_distinct_logical_node_once(self, monkeypatch):
        out = normalize(*_compound_cut_tower(8))
        logical_nodes = [n for n in out.nodes() if proofs.is_logical(n.rule)]
        assert out.size() > 2 ** 8 > len(logical_nodes)
        calls = _count_matches(monkeypatch)
        assert check(out, GCL, []).ok
        assert 0 < len(calls) <= len(logical_nodes)

    def test_intro_guards_each_child(self):
        goal, kids = ps("r |- p & q"), [premise(ps("r |- p")), premise(ps("r |- q"))]
        assert build_intro(goal, premise) == logical("and-right-intro", kids, goal)
        with pytest.raises(AssertionError):
            build_intro(goal, lambda t: premise(t.add(left=[Atom("s")])))

    def test_elim_takes_its_branch(self):
        row = ROWS[Or, "left"]
        p = premise(ps("p | q, r |-"), 0)
        assert elim(row, p, pf("p | q"), 1).conclusion == ps("q, r |-")
        assert check(elim(row, p, pf("p | q"), 0), GB, [p.conclusion]).ok

    def test_make_analytic_synthetic_takes_premises_in_either_order(self):
        # an or-elimination on r | s below an and-introduction of p & q,
        # whose premises are listed in branch order or against it
        sides = [ps("|- p, r | s"), ps("|- q, r | s")]
        outs = []
        for order in (sides, sides[::-1]):
            kids = [premise(s, sides.index(s)) for s in order]
            node = logical("or-right-elim", [logical("and-right-intro", kids, ps("|- p & q, r | s"))],
                           ps("|- p & q, r, s"))
            out = make_analytic_synthetic(node)
            assert check(out, GB, sides).ok and is_analytic_synthetic(out)
            assert out.conclusion == node.conclusion
            outs.append(out)
        assert outs[0] == outs[1]


def _compound_cut_tower(height: int):
    """normalize's arguments for a proof whose normal form shares logical
    nodes: a tower of cuts over the identity on p & q."""
    goal = ps("p & q |- p & q")
    d = structural("identity", [], goal)
    for _ in range(height):
        d = structural("cut", [d, d], goal)
    return d, GCL, [], goal


def _strip_indices(node: Proof) -> Proof:
    kids = tuple(_strip_indices(c) for c in node.children)
    return Proof(node.conclusion, node.rule, kids, None)


class TestPredicates:
    def test_structural_atomicity(self):
        assert not is_structurally_atomic(structural("identity", [], ps("p & q |- p & q")))
        intro_only = logical(
            "and-right-intro", [premise(ps("|- p"), 0), premise(ps("|- q"), 1)], ps("|- p & q")
        )
        assert is_structurally_atomic(intro_only)
        atomic_cut = structural("cut", [premise(ps("|- p"), 0), premise(ps("p |- q"), 1)], ps("|- q"))
        assert is_structurally_atomic(atomic_cut)

    def test_analytic_synthetic(self):
        e = logical("and-right-elim", [premise(ps("|- p & q"), 0)], ps("|- p"))
        i = logical("or-right-intro", [weaken_to(e, ps("|- p, r"))], ps("|- p | r"))
        assert is_analytic_synthetic(i)
        # intro immediately followed by elim
        i2 = logical("and-right-intro", [premise(ps("|- p"), 0), premise(ps("|- q"), 1)], ps("|- p & q"))
        e2 = logical("and-right-elim", [i2], ps("|- p"))
        assert not is_analytic_synthetic(e2)
        only_structural = structural("cut", [premise(ps("|- p"), 0), premise(ps("p |-"), 1)], Sequent())
        assert is_analytic_synthetic(only_structural)

    def test_subformula_property(self):
        prems = [ps("p |- q")]
        w = structural("weakening-right", [premise(prems[0], 0)], ps("p |- q, r"))
        other = structural("weakening-left", [premise(prems[0], 0)], ps("r, p |- q"))
        cut = structural("cut", [w, other], ps("p, p |- q, q"))
        assert check(cut, builtin_calculus("gk"), prems).ok
        assert not has_subformula_property(cut, prems)
        assert has_subformula_property(premise(prems[0], 0), prems)


class TestPhaseSplit:
    def test_three_zones(self):
        res = derives(
            [ps("|- p & (~p | q)")], ps("|- q"), builtin_calculus("getl")
        )
        assert res.verdict
        elim, struct, intro = phase_split(res.proof)
        assert elim and struct
        # above an elimination there are only eliminations, premises and axioms
        assert all(is_elim(n.rule) or n.rule == "premise" or is_axiom(n.rule) for e in elim for n in e.nodes())
        # the zones partition the distinct rule nodes
        rule_nodes = [n for n in res.proof.nodes() if n.rule != "premise" and not is_axiom(n.rule)]
        assert sorted(map(id, elim + struct + intro)) == sorted(map(id, rule_nodes))

    def test_shared_tower_is_linear(self):
        # 22 distinct nodes, 2**22 - 1 as a tree
        tower = _cut_tower(21)
        start = time.perf_counter()
        elim, struct, intro = phase_split(tower)
        assert time.perf_counter() - start < 1
        assert not elim and not intro and struct == tuple(tower.nodes())

    def test_intro_only(self):
        i = logical("and-right-intro", [premise(ps("|- p"), 0), premise(ps("|- q"), 1)], ps("|- p & q"))
        elim, struct, intro = phase_split(i)
        assert not elim and not struct and len(intro) == 1

    def test_single_premise_node(self):
        elim, struct, intro = phase_split(premise(ps("p |- q"), 0))
        assert not elim and not struct and not intro

    def test_precondition(self):
        node = structural("identity", [], ps("p & q |- p & q"))
        with pytest.raises(SupercutError):
            phase_split(node)


class TestBuilders:
    def test_elim_targets_match_at_set(self, rng):
        for _ in range(40):
            s = random_sequent(rng, ["p", "q"], 2)
            chains = elim_targets(premise(s, 0))
            assert frozenset(chains) == at_set(s)
            for member, proof in chains.items():
                assert proof.conclusion == member
                assert check(proof, GB, [s]).ok

    def test_build_intro_closes_by_axiom_first(self, rng):
        # ~T on the left closes the goal at once; p | ~p would branch first
        assert build_intro(ps("p | ~p, ~T |-"), premise) == logical(
            "neg-left-intro", [Proof(ps("p | ~p |- T"), "top-right")], ps("p | ~p, ~T |-")
        )
        assert build_intro(ps("|- p & q, q | T"), premise).rule == "or-right-intro"
        # with no such candidate, the first compound formula goes first
        assert build_intro(ps("|- q & p, r & T"), premise).children[0].conclusion == ps("|- q, r & T")
        for _ in range(40):
            s = random_sequent(rng, ["p", "q"], 2)
            leaves = [n.conclusion for n in build_intro(s, premise).nodes() if n.rule == "premise"]
            assert set(leaves) == at_set(s)

    def test_intro_derive(self):
        assert intro_derive(ps("|- p & q"), [ps("|- p"), ps("|- q")]) is not None
        assert intro_derive(ps("|- T"), []) is not None
        assert intro_derive(ps("|- p & q"), [ps("|- p")]) is None
        proof = intro_derive(ps("|- p & q"), [ps("|- p"), ps("|- q")])
        assert check(proof, GB, [ps("|- p"), ps("|- q")]).ok

    def test_intro_derive_rejects_nonatomic(self):
        with pytest.raises(AssertionError):
            intro_derive(ps("|- p"), [ps("|- p & q")])


class TestSerialization:
    def test_roundtrip(self):
        for proof, _ in interderivability_fixtures():
            blob = proof_to_dict(proof)
            assert proof_from_dict(blob) == proof

    def test_dot(self):
        proof, _ = interderivability_fixtures()[0]
        dot = proof_to_dot(proof)
        assert dot.startswith("digraph proof {") and "identity" in dot

    def test_deep_chain(self):
        # 4,001 nodes, one per level: premise, then alternating weakening and
        # contraction on the left
        d = structural("weakening-left", [premise(ps("|- p"), 0)], ps("q |- p"))
        for _ in range(1999):
            d = structural("contraction-left", [structural("weakening-left", [d], ps("q, q |- p"))], ps("q |- p"))
        d = structural("weakening-left", [d], ps("q, q |- p"))
        walked = list(d.nodes())
        # one child per node: the premise is at depth 4,000
        assert len(walked) == 4001 and all(len(n.children) == 1 for n in walked[:-1]) and walked[-1].rule == "premise"
        copy = proof_from_dict(proof_to_dict(d))
        assert [(len(n.children), n.conclusion, n.rule, n.premise_index) for n in copy.nodes()] == [
            (len(n.children), n.conclusion, n.rule, n.premise_index) for n in walked
        ]
        assert check(copy, GCL, [ps("|- p")]).ok
        dot = proof_to_dot(d).splitlines()
        assert dot[2] == '  n0 [label="q, q |- p"];' and dot[-2] == '  n1 -> n0 [label="weakening-left"];'
        assert sum(" -> " in line for line in dot) == 4000
