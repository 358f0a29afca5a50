"""Formula/sequent syntax, polarity, substitutions, and the transformers."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from supercut import syntax
from supercut.matrices import B4, ETL4, builtin, holds, product_matrix
from supercut.proofs import CheckResult, Proof, proof_from_dict
from supercut.rules import CUT, LIMITED_CUT_LEFT, builtin_calculus, expansion
from supercut.syntax import (
    KEY_CAP,
    And,
    Atom,
    BOT,
    Bot,
    Formula,
    FreshNames,
    Neg,
    Or,
    ParseError,
    Sequent,
    Substitution,
    TOP,
    Top,
    Value,
    apply_subst,
    atoms_of,
    decompose_substitution,
    is_atomic_subst,
    is_balanced,
    is_balanced_subst,
    is_non_conflicting,
    map_atoms,
    parse_formula,
    parse_sequent,
    polarity,
    render,
    rho,
    set_to_formula,
    subformulas,
    tau,
)

from conftest import random_formula

p, q, r = Atom("p"), Atom("q"), Atom("r")


formulas = st.recursive(
    st.sampled_from([p, q, r, Atom("s1"), TOP, BOT]),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
    ),
    max_leaves=12,
)

sequents = st.tuples(
    st.lists(formulas, max_size=3), st.lists(formulas, max_size=3)
).map(lambda t: Sequent(*t))


class TestParser:
    def test_examples(self):
        assert parse_formula("~p | q") == Or(Neg(p), q)
        assert parse_formula("T") == TOP
        assert parse_formula("(p & ~p) | (q & ~q)") == Or(And(p, Neg(p)), And(q, Neg(q)))

    def test_precedence(self):
        assert parse_formula("~p & q | r") == Or(And(Neg(p), q), r)
        assert parse_formula("p & q & r") == And(And(p, q), r)
        assert parse_formula("p | (q | r)") == Or(p, Or(q, r))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p & ")
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse_formula("p q")
        with pytest.raises(ParseError):
            parse_formula("(p")
        with pytest.raises(ParseError):
            parse_sequent("p |- q |- r")

    def test_turnstile_errors_point_at_the_fault(self):
        # a missing '|-' is reported at the end, an extra one where it stands
        for text, position in (("p", 1), ("p & q ", 6), ("p |- q |- r", 7), ("|- |- p |- q", 3)):
            with pytest.raises(ParseError) as exc:
                parse_sequent(text)
            assert exc.value.position == position, text

    def test_member_errors_point_into_the_whole_text(self):
        # a faulty member is reported where it stands in the sequent's text,
        # not in its own chunk
        for text, position in (("p,,q |- p", 2), ("p |- p, ", 8), ("p, q |- r & ", 12), ("  p & |- q", 6)):
            with pytest.raises(ParseError) as exc:
                parse_sequent(text)
            assert exc.value.position == position, text
            with pytest.raises(ParseError) as exc:
                proof_from_dict({"sequent": text, "rule": "premise"})
            assert exc.value.position == position, text

    @given(formulas)
    def test_roundtrip(self, f):
        assert parse_formula(render(f)) == f

    @given(sequents)
    def test_sequent_roundtrip(self, s):
        assert parse_sequent(s.render()) == s

    def test_sequent_rendering(self):
        assert parse_sequent("|- p").render() == "|- p"
        assert parse_sequent("p |-").render() == "p |-"
        assert parse_sequent("|-").render() == "|-"
        assert Sequent().is_empty()


class TestSequent:
    def test_multiset_equality(self):
        assert parse_sequent("p, q |- r") == parse_sequent("q, p |- r")
        assert parse_sequent("p, p |- r") != parse_sequent("p |- r")

    def test_atomic(self):
        assert parse_sequent("p, q |- r").is_atomic()
        assert not parse_sequent("T |- p").is_atomic()
        assert Sequent().is_atomic()

    def test_support(self):
        assert parse_sequent("p, p |- q").support() == parse_sequent("p |- q")

    def test_remove_one_keeps_the_order_a_new_sequent_gets(self, rng):
        extra = [Atom("T"), TOP, Atom("p & q"), And(p, q)]  # pairs with one rendering
        for _ in range(200):
            forms = [random_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(1, 4))]
            forms += rng.sample(extra, rng.randint(0, 2))
            s = Sequent(forms, reversed(forms))
            for side in ("left", "right"):
                for f in forms:
                    rest = list(getattr(s, side))
                    rest.remove(f)
                    want = Sequent(rest, s.right) if side == "left" else Sequent(s.left, rest)
                    got = s.remove_one(f, side)
                    assert (got.left, got.right) == (want.left, want.right)

    def test_add_keeps_the_order_a_new_sequent_gets(self, rng):
        # long formulas whose rendering is past the key cap, so not stored
        long = []
        for f in (p, q):
            for _ in range(KEY_CAP // 4):
                f = And(f, r)
            long.append(f)
        assert all(len(render(f)) > KEY_CAP for f in long)
        extra = [Atom("T"), TOP, Atom("p & q"), And(p, q)] + long
        for _ in range(300):
            def forms():
                out = [random_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 3))]
                return out + rng.sample(extra, rng.randint(0, 2))
            s, left, right = Sequent(forms(), forms()), forms(), forms()
            for gained_l, gained_r in ((left, right), (left, []), ([], right), ([], [])):
                got, want = s.add(gained_l, gained_r), Sequent(s.left + tuple(gained_l), s.right + tuple(gained_r))
                assert (got.left, got.right) == (want.left, want.right)


class TestAtomsAndSubformulas:
    def test_atoms(self):
        assert atoms_of(Or(Neg(p), q)) == {"p", "q"}
        assert atoms_of(TOP) == frozenset()
        assert atoms_of(parse_sequent("p, q |- r")) == {"p", "q", "r"}

    def test_subformulas(self):
        assert subformulas(And(p, q)) == {And(p, q), p, q}
        assert subformulas(Neg(TOP)) == {Neg(TOP), TOP}
        assert subformulas(p) == {p}


class TestPolarity:
    def test_mixed_polarity_example(self):
        rep = polarity(Or(Neg(p), q))
        assert rep.pair("p") == (False, True)
        assert rep.pair("q") == (True, False)

    def test_both_and_double_negation(self):
        assert polarity(And(p, Neg(p))).pair("p") == (True, True)
        assert polarity(Neg(Neg(p))).pair("p") == (True, False)
        assert polarity(TOP).pair("p") == (False, False)

    @given(formulas)
    def test_negation_swaps(self, f):
        rep, neg_rep = polarity(f), polarity(Neg(f))
        for a in atoms_of(f):
            pp, nn = rep.pair(a)
            assert neg_rep.pair(a) == (nn, pp)

    def test_balanced(self):
        assert is_balanced(Or(Neg(p), q))
        assert not is_balanced(And(p, Neg(p)))
        s = Substitution({"p": And(Atom("a"), Atom("b")), "q": Neg(Atom("c"))})
        assert is_non_conflicting(s) and is_balanced_subst(s)
        assert not is_non_conflicting(Substitution({"p": Atom("a"), "q": Atom("a")}))
        assert is_atomic_subst(Substitution({"p": q}))
        assert not is_atomic_subst(Substitution({"p": And(p, q)}))


class TestSubstitution:
    def test_examples(self):
        s = Substitution({"p": And(p, q)})
        assert apply_subst(s, rho(p)) == Sequent((), (And(p, q),))
        assert apply_subst(Substitution({}), Neg(p)) == Neg(p)
        assert apply_subst(Substitution({"p": q}), Neg(p)) == Neg(q)

    @given(sequents)
    def test_commutes_with_tau(self, s):
        # canonical ordering inside tau is not substitution-stable, so the
        # commutation holds up to interderivability over B4
        sub = Substitution({"p": And(q, r), "q": Neg(p)})
        lhs = tau(apply_subst(sub, s))
        rhs = apply_subst(sub, tau(s))
        spec = builtin("b")
        assert holds(spec, [lhs], rhs) and holds(spec, [rhs], lhs)

    def test_commutes_with_tau_structurally_when_order_stable(self):
        s = parse_sequent("p, q |- r")
        sub = Substitution({"r": And(q, r)})
        assert tau(apply_subst(sub, s)) == apply_subst(sub, tau(s))

    @given(st.dictionaries(st.sampled_from(["p", "q", "r"]), formulas, max_size=3))
    def test_decomposition(self, mapping):
        s = Substitution(mapping)
        relevant = {"p", "q", "r"}
        bnc, sa = decompose_substitution(s, relevant, FreshNames())
        assert is_balanced_subst(bnc) and is_non_conflicting(bnc)
        assert is_atomic_subst(sa)
        for a in relevant:
            assert apply_subst(sa, apply_subst(bnc, Atom(a))) == s(a)

    def test_decomposition_example(self):
        s = Substitution({"p": And(Atom("a"), Neg(Atom("a")))})
        bnc, sa = decompose_substitution(s, {"p"}, FreshNames())
        img = bnc("p")
        assert isinstance(img, And) and isinstance(img.right, Neg)
        assert img.left != img.right.arg  # the two polarities got distinct atoms
        assert sa(img.left.name) == Atom("a")
        assert apply_subst(sa, img) == s("p")

    def test_map_atoms_in_leaf_order(self):
        seen = []
        out = map_atoms(parse_formula("(p & ~q) | (T & p)"), lambda a: seen.append(a) or Atom(f"_e{len(seen)}"))
        assert seen == [p, q, p] and render(out) == "_e1 & ~_e2 | T & _e3"

    def test_shared_image_atoms_split(self):
        s = Substitution({"p": q, "r": q})
        bnc, sa = decompose_substitution(s, {"p", "r"}, FreshNames())
        assert bnc("p") != bnc("r")
        assert apply_subst(sa, bnc("p")) == q and apply_subst(sa, bnc("r")) == q


def _polarity_reference(f):
    """polarity as it was, one call per level: the flags it reports."""
    acc = {}

    def walk(g, sign):
        if isinstance(g, Atom):
            acc.setdefault(g.name, [False, False])[0 if sign else 1] = True
        elif isinstance(g, Neg):
            walk(g.arg, not sign)
        elif isinstance(g, (And, Or)):
            walk(g.left, sign)
            walk(g.right, sign)

    walk(f, True)
    return tuple(sorted((a, p, n) for a, (p, n) in acc.items()))


def _decompose_reference(s, relevant_atoms, fresh):
    """decompose_substitution as it was, one call per level: the mappings
    of bnc and sa."""
    bnc, sa = {}, {}

    def freshen(g, sign, table):
        if isinstance(g, Atom):
            key = (g.name, sign)
            if key not in table:
                name = fresh.take()
                table[key] = name
                sa[name] = g
            return Atom(table[key])
        if isinstance(g, (Top, Bot)):
            return g
        if isinstance(g, Neg):
            return Neg(freshen(g.arg, not sign, table))
        return type(g)(freshen(g.left, sign, table), freshen(g.right, sign, table))

    for a in sorted(set(relevant_atoms)):
        bnc[a] = freshen(s(a), True, {})
    return Substitution(bnc).mapping, Substitution(sa).mapping


class TestPolarityAndDecompositionWalks:
    def test_match_the_recursive_versions(self):
        rng = random.Random(18)
        for _ in range(300):
            f = random_formula(rng, ["p", "q", "r"], 5)
            assert polarity(f).flags == _polarity_reference(f)
            s = Substitution({a: random_formula(rng, ["p", "q", "r"], 4) for a in rng.sample(["p", "q", "r"], 2)})
            bnc, sa = decompose_substitution(s, {"p", "q", "r"}, FreshNames())
            assert (bnc.mapping, sa.mapping) == _decompose_reference(s, {"p", "q", "r"}, FreshNames())

    def test_deep_chain(self):
        # ~(q & ~(p & ~(q & ... ~(p & r)))), 3,000 levels of each connective:
        # q under odd numbers of negations, p and r under even ones
        f = r
        for i in range(3000):
            f = Neg(And(q if i % 2 else p, f))
        assert [polarity(f).pair(a) for a in "pqr"] == [(True, False), (False, True), (True, False)]
        assert is_balanced(f) and not is_balanced(And(q, f))
        bnc, sa = decompose_substitution(Substitution({"x": f}), {"x"}, FreshNames())
        # fresh names in leaf order
        assert sa.mapping == (("_v0", q), ("_v1", p), ("_v2", r))
        assert apply_subst(sa, bnc("x")) == f


class TestTransformers:
    def test_tau(self):
        assert tau(parse_sequent("p, q |- r")) == Or(Neg(And(p, q)), r)
        assert tau(Sequent()) == Or(Neg(TOP), BOT)
        assert tau(rho(p)) == Or(Neg(TOP), p)

    def test_rho(self):
        assert rho(p) == Sequent((), (p,))
        assert rho(TOP) == Sequent((), (TOP,))
        assert rho(And(p, q)) == Sequent((), (And(p, q),))

    def test_set_to_formula(self):
        assert set_to_formula([parse_sequent("p |- q")]) == Or(Neg(p), q)
        assert set_to_formula([]) == TOP
        f = set_to_formula([parse_sequent("|- p"), parse_sequent("p |-")])
        # equivalent over B4 to p & ~p, by the matrix oracle
        target = And(p, Neg(p))
        assert holds(builtin("b"), [f], target) and holds(builtin("b"), [target], f)

    def test_set_to_formula_order_insensitive(self):
        a, b = parse_sequent("|- p"), parse_sequent("p |- q")
        assert set_to_formula([a, b]) == set_to_formula([b, a])


def _render_reference(f, prec=0):
    """Reference renderer, a case analysis with one call per level; prec
    0 = or-level, 1 = and-level, 2 = neg/atom-level."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Neg):
        return "~" + _render_reference(f.arg, 2)
    if isinstance(f, And):
        s = _render_reference(f.left, 1) + " & " + _render_reference(f.right, 2)
        return "(" + s + ")" if prec > 1 else s
    s = _render_reference(f.left, 0) + " | " + _render_reference(f.right, 1)
    return "(" + s + ")" if prec > 0 else s


def _same_reference(f, g):
    """Structural equality by type and fields, one call per level."""
    if type(f) is not type(g):
        return False
    return all(
        _same_reference(a, b) if isinstance(a, Formula) else a == b
        for a, b in ((getattr(f, x), getattr(g, x)) for x in f._fields)
    )


class TestStoredKeyAndHash:
    ATOMS = ["p", "q", "r", "s1", "long_name"]

    def _corpus(self, n=500, seed=6):
        """Formulas built by constructor, each paired with its parsed copy."""
        rng = random.Random(seed)
        built = [random_formula(rng, self.ATOMS, 5) for _ in range(n)]
        return [(f, parse_formula(_render_reference(f))) for f in built]

    def test_render_agrees_with_the_reference(self):
        for f, g in self._corpus():
            assert render(f) == _render_reference(f) == render(g)
            assert parse_formula(render(f)) == f

    def test_equality_and_hash_agree_with_the_reference(self):
        corpus = self._corpus()
        rng = random.Random(7)
        pairs = [(f, g) for f, g in corpus]  # equal, built apart
        pool = [f for pair in corpus for f in pair]
        pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(2000)]
        pairs += [(Neg(f), Neg(g)) for f, g in corpus[:50]] + [(And(f, g), Or(f, g)) for f, g in corpus[:50]]
        pairs += [
            (Atom("T"), TOP),
            (Atom("F"), BOT),
            (TOP, BOT),
            (Atom("p & q"), And(p, q)),
            (And(p, q), Or(p, q)),
            (Neg(TOP), Neg(BOT)),
            (And(And(p, q), r), And(p, And(q, r))),
            (And(Atom("p & q"), r), And(And(p, q), r)),  # same type and rendering
            (Neg(Atom("T")), Neg(TOP)),
        ]
        for f, g in pairs:
            same = _same_reference(f, g)
            assert (f == g) is same and (g == f) is same and (f != g) is not same and (f is g) is same
            if same:
                assert hash(f) == hash(g)
        assert Atom("T") not in {TOP, BOT} and And(p, q) not in {Atom("p & q"), Or(p, q)}

    def test_equal_renderings_under_a_hash_collision(self):
        # atom names that are not identifiers make renderings ambiguous;
        # such formulas stay distinct nodes, whatever they render as, and
        # no hash can be set on a node
        for f, g in [
            (And(Atom("p & q"), r), And(And(p, q), r)),
            (Neg(Atom("T")), Neg(TOP)),
            (Or(Atom("p | q"), r), Or(Or(p, q), r)),
        ]:
            assert render(f) == render(g)
            assert f is not g and f != g and g != f
            with pytest.raises(AttributeError):
                object.__setattr__(g, "_hash", hash(f))

    def test_sides_sorted_by_the_reference_rendering(self):
        forms = [f for pair in self._corpus(60) for f in pair]
        rng = random.Random(8)
        for _ in range(100):
            side = rng.sample(forms, 4)
            s = Sequent(side, reversed(side))
            assert [_render_reference(f) for f in s.left] == sorted(_render_reference(f) for f in side)
            assert s.right == s.left

    def test_past_the_key_cap(self):
        # long enough that render() builds the text on the call: a chain of
        # random connectives, each with a small random sibling
        rng = random.Random(9)
        for _ in range(20):
            f = Atom("p")
            for _ in range(150):
                g = random_formula(rng, self.ATOMS, 1)
                f = rng.choice([Neg(f), And(f, g), And(g, f), Or(f, g), Or(g, f)])
            assert len(render(f)) > KEY_CAP
            assert render(f) == _render_reference(f)
            assert parse_formula(render(f)) == f
            assert render(Or(f, TOP)) == _render_reference(Or(f, TOP))

    def test_stored_values_are_not_fields(self):
        assert list(And._fields) == ["left", "right"]
        assert repr(And(p, Neg(TOP))) == "And(left=Atom(name='p'), right=Neg(arg=Top()))"
        f = parse_formula("~(p & q) | r")
        assert b"_hash" not in pickle.dumps(f) and b"_key" not in pickle.dumps(f)
        assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f


class TestHashConsing:
    """One node per distinct formula, held weakly by ``syntax._NODES``."""

    def test_constructors_return_the_live_node(self):
        assert Atom("p") is Atom("p") is p and Top() is TOP and Bot() is BOT
        assert And(p, Neg(q)) is And(Atom("p"), Neg(Atom("q"))) is not Or(p, Neg(q))

    def test_equal_parses_are_one_node(self):
        for f, g in TestStoredKeyAndHash()._corpus():
            text = render(f)
            assert parse_formula(text) is parse_formula(text) is f is g

    def test_pickle_and_copy_return_the_node(self):
        f = parse_formula("~(p & q) | T & long_name")
        assert pickle.loads(pickle.dumps(f)) is f and copy.deepcopy(f) is f and copy.copy(f) is f
        s = parse_sequent("p & q |- ~r")
        assert copy.deepcopy(s).left[0] is s.left[0]

    def test_the_table_drops_a_formula_dropped_everywhere_else(self):
        gc.collect()
        before = len(syntax._NODES)
        f = parse_formula("dropped_a & ~dropped_b | dropped_a")
        assert len(syntax._NODES) == before + 5  # two atoms, ~, & and |
        refs = [weakref.ref(g) for g in subformulas(f)]
        del f
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(syntax._NODES) == before and "dropped_a" not in syntax._NODES


class TestDeepFormulas:
    DEPTH = 10_000

    def _chains(self):
        """Neg, left-nested And and right-nested And chains, built by
        constructor; each with its expected rendering and atoms."""
        neg, left, right = Atom("p"), Atom("p"), Atom("p")
        for _ in range(self.DEPTH):
            neg, left, right = Neg(neg), And(left, q), And(q, right)
        n = self.DEPTH
        return [
            (neg, "~" * n + "p", {"p"}),
            (left, "p" + " & q" * n, {"p", "q"}),
            (right, "q & (" * (n - 1) + "q & p" + ")" * (n - 1), {"p", "q"}),
        ]

    def test_no_recursion_error(self):
        for (f, text, atoms), (copy_, _, _) in zip(self._chains(), self._chains()):
            assert f is copy_
            assert hash(f) == hash(copy_) and f == copy_ and not f != copy_
            assert f != Neg(copy_) and f != Or(q, copy_)
            assert render(f) == text
            s = Sequent([f, p], [f])
            assert s.left == (p, f) and s == Sequent([copy_, p], [copy_])
            assert atoms_of(f) == atoms_of(s) == atoms

    def test_parse_deep_nesting(self):
        n = 3000
        neg, conj = p, p
        for _ in range(n):
            neg, conj = Neg(neg), And(conj, q)
        assert parse_formula("~" * n + "p") == neg
        assert parse_formula("~(" * n + "p" + ")" * n) == neg
        assert parse_formula("(" * n + "p" + ")" * n) == p
        assert parse_formula(" & ".join(["p"] + ["q"] * n)) == conj
        with pytest.raises(ParseError) as exc:
            parse_formula("(" * n + "p" + ")" * (n - 1))
        assert exc.value.position == 2 * n and exc.value.expected == "')'"

    def test_substitution_of_a_deep_chain(self):
        for f, text, _ in self._chains():
            assert render(apply_subst(Substitution({"p": r}), f)) == text.replace("p", "r")

    def test_repr_of_a_deep_chain(self):
        f = p
        for _ in range(2000):
            f = Neg(f)
        assert repr(f) == "Neg(arg=" * 2000 + "Atom(name='p')" + ")" * 2000

    def test_pickle_and_deepcopy_of_a_deep_chain(self):
        f = p
        for _ in range(3000):
            f = Neg(f)
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g is f

    def test_differ_at_the_bottom(self):
        f, g = Atom("p"), Atom("r")
        for _ in range(self.DEPTH):
            f, g = Neg(f), Neg(g)
        assert f != g and not f == g


_PICKLE_CHILD = """
import pickle, sys
from supercut.syntax import parse_formula, parse_sequent
text = "~(p & q) | r & long_name"
if sys.argv[1] == "dump":
    with open(sys.argv[2], "wb") as fh:
        pickle.dump((parse_formula(text), parse_sequent(text + ", q |- p")), fh)
else:
    with open(sys.argv[2], "rb") as fh:
        f, s = pickle.load(fh)
    fresh_f, fresh_s = parse_formula(text), parse_sequent(text + ", q |- p")
    assert f is fresh_f and hash(f) == hash(fresh_f) and f in {fresh_f}
    assert s == fresh_s and hash(s) == hash(fresh_s) and s in {fresh_s}
    assert fresh_f in set(s.left)
"""


def test_pickles_carry_no_hash_across_hash_seeds(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    blob = tmp_path / "formulas.pickle"

    def child(seed, mode):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _PICKLE_CHILD, mode, str(blob)], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr

    # the atoms' hashes differ between the two seeds, so a hash carried in
    # the pickle would be stale; the loading child checks that the pickled
    # formula is its own live node
    child(1, "dump")
    child(2, "load")


class TestValueClasses:
    """The package's value classes without dataclasses: each compares and
    hashes by value, over the fields it compares, reprs and pickles read
    the fields, and a field cannot be assigned."""

    def _hashable(self):
        seq = parse_sequent("p, q & ~r |- F, p")
        leaf = Proof(seq, "premise", (), 0)
        rule, _ = expansion(LIMITED_CUT_LEFT, (parse_formula("x & y"),))
        assert rule.sources
        return {
            "formulas": list(subformulas(parse_formula("~(p & q) | T & F"))),
            "sequents": [seq, Sequent()],
            "proofs": [leaf, Proof(seq, "weakening-left", (leaf, leaf))],
            "schemas": [s for r in (CUT, rule) for s in r.premises + (r.conclusion,)],
            "rules": [CUT, rule],
            "calculi": [builtin_calculus("gcl")],
            "matrices": [B4, product_matrix(ETL4, B4)],
        }

    def test_hash_is_the_hash_of_the_compared_fields(self):
        values = self._hashable()
        for x in values["sequents"] + values["schemas"] + values["matrices"]:
            assert hash(x) == hash(tuple(getattr(x, name) for name in x._fields)), x
        # a proof's children count by their hashes, so no hash recurses
        for d in values["proofs"]:
            assert hash(d) == hash((d.conclusion, d.rule, tuple(map(hash, d.children)), d.premise_index))
        # a formula is the one node for its fields, and hashes by identity
        for f in values["formulas"]:
            assert hash(f) == object.__hash__(f), f
        for rule in values["rules"]:
            # sources take no part
            assert hash(rule) == hash((rule.name, rule.premises, rule.conclusion))
            assert rule == type(rule)(rule.name, rule.premises, rule.conclusion)
        for calc in values["calculi"]:
            assert hash(calc) == hash(calc.name)

    @staticmethod
    def _builders():
        """One builder per value class of the package: each call builds a
        new value, equal to what the last call built."""
        from supercut.engine import DeriveResult, derives
        from supercut.interpolation import InterpolationResult, interpolate_sequents
        from supercut.matrices import LogicSpec, Matrix, single
        from supercut.rules import (DECOMPOSITION, Calculus, Decomposition, LogicalMatch, RuleClassification,
                                    SequentSchema, StructuralRule, classify, match_logical, parse_structural_rule)
        from supercut.syntax import PolarityReport

        def rule():
            return parse_structural_rule(CUT.render(), "cut")

        return {
            Atom: lambda: Atom("p"),
            Top: Top,
            Bot: Bot,
            Neg: lambda: parse_formula("~p"),
            And: lambda: parse_formula("p & ~q"),
            Or: lambda: parse_formula("p | q & r"),
            PolarityReport: lambda: polarity(parse_formula("p & ~(q | ~p)")),
            Sequent: lambda: parse_sequent("p, q & r |- ~p"),
            Substitution: lambda: Substitution({"p": Atom("q"), "r": parse_formula("p & q")}),
            Matrix: lambda: product_matrix(ETL4, B4),
            LogicSpec: lambda: single(B4),
            Proof: lambda: Proof(parse_sequent("p |- p, q"), "weakening-right",
                                 (Proof(parse_sequent("p |- p"), "identity"),)),
            CheckResult: lambda: CheckResult(False, (0, 1), "not an instance"),
            Decomposition: lambda: Decomposition(And, "left", DECOMPOSITION[And, "left"], "and-left-intro",
                                                 "and-left-elim"),
            LogicalMatch: lambda: match_logical("and-left-intro", [parse_sequent("p, q |-")],
                                                parse_sequent("p & q |-")),
            SequentSchema: lambda: rule().premises[1],
            StructuralRule: rule,
            Calculus: lambda: builtin_calculus("gcl"),
            RuleClassification: lambda: classify(rule()),
            DeriveResult: lambda: derives([parse_sequent("|- p")], parse_sequent("|- p | q"), builtin_calculus("gk")),
            InterpolationResult: lambda: interpolate_sequents([parse_sequent("|- p & q")], parse_sequent("|- p | r"),
                                                              "gb"),
        }

    def test_every_value_class_compares_by_value(self):
        def leaves(cls):
            subs = cls.__subclasses__()
            return {c for sub in subs for c in leaves(sub)} if subs else {cls}

        builders = self._builders()
        assert leaves(Value) == set(builders)  # a builder for each value class
        for cls, build in builders.items():
            x, y = build(), build()
            # a formula's two builds are one node
            assert type(x) is cls and (x is y) is issubclass(cls, Formula), cls
            assert x == y and hash(x) == hash(y), cls
            z = pickle.loads(pickle.dumps(x))
            assert z == x and hash(z) == hash(x), cls
        # a compared field set apart sets the values apart
        assert Substitution({"p": Atom("q")}) != Substitution({"p": Atom("r")})
        assert CheckResult(True) != CheckResult(False) and CheckResult(True) == CheckResult(True)

    def test_reprs(self):
        assert repr(parse_sequent("p |- q & r")) == (
            "Sequent(left=(Atom(name='p'),), right=(And(left=Atom(name='q'), right=Atom(name='r')),))"
        )
        assert repr(Sequent()) == "Sequent(left=(), right=())"
        assert repr(Or(Neg(BOT), Atom("s1"))) == "Or(left=Neg(arg=Bot()), right=Atom(name='s1'))"

    def test_pickles(self):
        for group in self._hashable().values():
            for x in group:
                y = pickle.loads(pickle.dumps(x))
                assert y == x and hash(y) == hash(x) and type(y) is type(x)
        m = self._hashable()["matrices"][1]
        assert pickle.loads(pickle.dumps(m)).factors == m.factors != ()

    def test_fields_are_read_only(self):
        for group in self._hashable().values():
            for x in group:
                for name in x._fields or ("name",):  # Top and Bot have no fields
                    with pytest.raises(AttributeError):
                        setattr(x, name, None)
                    with pytest.raises(AttributeError):
                        delattr(x, name)
