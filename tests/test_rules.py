"""Rule matching, At-sets, rule classification and expansions."""

import functools
import itertools
import random
import time

import pytest

from supercut import rules as R
from supercut.cli import run
from supercut.engine import effective_calculus
from supercut.matrices import builtin, holds_sequent
from supercut.rules import (
    CUT,
    EXPLOSIVE_CUT,
    IDENTITY,
    LIMITED_CUT_LEFT,
    LIMITED_CUT_RIGHT,
    MAX_EXPANSION_IMAGES,
    WEAKENING_LEFT,
    SequentSchema,
    StructuralRule,
    at_set,
    builtin_calculus,
    canonical_rule,
    classify,
    hilbert_to_structural,
    match_logical,
    match_structural,
    parse_structural_rule,
    sigma_expand,
)
from supercut.syntax import (
    And,
    Atom,
    Neg,
    Or,
    ResourceCapError,
    Sequent,
    Substitution,
    SupercutError,
    formula_key,
    map_atoms,
    parse_formula as pf,
    parse_sequent as ps,
    render,
)

from conftest import GLP_LC, HILBERT, random_formula, random_sequent

B = builtin("b")


class TestCalculi:
    def test_builtins(self):
        assert builtin_calculus("gb").specific == ()
        assert [r.name for r in builtin_calculus("glp").specific] == ["identity"]
        assert [r.name for r in builtin_calculus("gk").specific] == ["cut"]
        assert [r.name for r in builtin_calculus("getl").specific] == [
            "limited-cut-left",
            "limited-cut-right",
        ]
        assert [r.name for r in builtin_calculus("gecq").specific] == ["explosive-cut"]
        assert {r.name for r in builtin_calculus("gcl").specific} == {"identity", "cut"}
        with pytest.raises(SupercutError):
            builtin_calculus("gnope")

    def test_duplicate_rule_names_rejected(self):
        # a step names its rule: an axiom named weakening-left would stand in
        # for the Weakening of that name when a proof is checked
        with pytest.raises(SupercutError, match="rule name weakening-left is taken"):
            R.Calculus("x", (parse_structural_rule("=> x |- x", "weakening-left"),))
        with pytest.raises(SupercutError, match="rule name r is taken"):
            R.Calculus("x", (parse_structural_rule(IDENTITY.render(), "r"), parse_structural_rule(CUT.render(), "r")))
        # nor the name of a step that is no structural rule
        for taken in ("premise", "and-left-intro", "top-right"):
            with pytest.raises(SupercutError, match=f"rule name {taken} is taken"):
                R.Calculus("x", (parse_structural_rule("=> x |- x", taken),))

    def test_common_rules_always_available(self):
        gb = builtin_calculus("gb")
        for name in ("weakening-left", "weakening-right", "contraction-left", "contraction-right"):
            assert gb.rule(name).name == name
        assert gb.rule("cut") is None

    def test_context_cut_is_an_expansion_of_limited_cut_right(self):
        # MC({p}, {q, r}) is limited-cut-left under x := ~p | q | r, and also,
        # up to the order of its premises, limited-cut-right under x := p & ~q & ~r
        (expanded,) = sigma_expand(LIMITED_CUT_RIGHT, Substitution({"x": pf("p & ~q & ~r")}))
        mc, _ = R.expansion(LIMITED_CUT_LEFT, (pf("~p | q | r"),))
        assert mc.name == "limited-cut-left[~x0 | x1 | x2]"
        renamed = R._rename_rule(mc, {"x0": "p", "x1": "q", "x2": "r"}, {})
        assert set(renamed.premises) == set(expanded.premises) and renamed.conclusion == expanded.conclusion
        assert mc.premises[0] == SequentSchema(["x0"], (), ["x1", "x2"], ())  # the core comes first
        assert mc.sources == (0, 1, 1, 1)
        # MC({}, {x}) keeps the base name
        assert R.expansion(LIMITED_CUT_LEFT, (pf("p"),))[0].name == "limited-cut-left"

    def test_context_cuts_resolve_by_name(self):
        getl, gk = builtin_calculus("getl"), builtin_calculus("gk")
        for a, b in [(0, 2), (1, 3), (4, 2), (3, 9)]:
            xs = [Atom(f"x{i}") for i in range(a + b)]
            rule, _ = R.expansion(LIMITED_CUT_LEFT, (functools.reduce(Or, [Neg(x) for x in xs[:a]] + xs[a:]),))
            assert getl.rule(rule.name) == rule and getl.rule(rule.name) is getl.rule(rule.name)
            assert gk.rule(rule.name) is None
            assert getl.rule(rule.name.replace("x0", "y0")) is None  # not over x0, x1, ... in leaf order
        assert getl.rule("limited-cut-left[~x0 | x10 | x2]") is None  # leaf order
        assert getl.rule(LIMITED_CUT_RIGHT.render()) is None
        assert getl.rule("no => rule") is None and getl.rule("not a rule") is None

    def test_expansion_names_nest(self):
        # an expansion of a pool member is named over the member's name, and
        # resolves in the base calculus
        gecq = builtin_calculus("gecq")
        member = gecq.rule("explosive-cut[x0 | x1]")
        step, _ = R.expansion(member, (pf("p & q"), pf("r")))
        assert step.name == "explosive-cut[x0 | x1][x0 & x1, x2]"
        assert gecq.rule(step.name) == step
        assert step.render() == "|- x0, x2 ; |- x1, x2 ; x0, x1 |- ; x2 |- => |-"

    def test_rule_text_roundtrip(self):
        for rule in (CUT, IDENTITY, LIMITED_CUT_LEFT, EXPLOSIVE_CUT, WEAKENING_LEFT):
            back = parse_structural_rule(rule.render(), rule.name)
            assert back.premises == rule.premises and back.conclusion == rule.conclusion
        assert CUT.render() == "G |- D, x ; x, G' |- D' => G, G' |- D, D'"


class TestMatchLogical:
    def test_and_right_intro(self):
        m = match_logical(
            "and-right-intro",
            [ps("g |- d, p"), ps("g |- d, q")],
            ps("g |- d, p & q"),
        )
        assert m is not None and m.principal == And(Atom("p"), Atom("q"))

    def test_neg_right_intro(self):
        assert match_logical("neg-right-intro", [ps("p, g |- d")], ps("g |- d, ~p")) is not None

    def test_wrong_connective(self):
        assert (
            match_logical(
                "and-right-intro",
                [ps("g |- d, p"), ps("g |- d, q")],
                ps("g |- d, p | q"),
            )
            is None
        )

    def test_arity(self):
        assert match_logical("and-right-intro", [ps("g |- d, p")], ps("g |- d, p & q")) is None

    def test_elims(self):
        assert match_logical("and-right-elim", [ps("|- p & q")], ps("|- p")) is not None
        assert match_logical("and-right-elim", [ps("|- p & q")], ps("|- q")) is not None
        assert match_logical("and-left-elim", [ps("p & q |- r")], ps("p, q |- r")) is not None
        assert match_logical("top-left-elim", [ps("T, p |- q")], ps("p |- q")) is not None
        assert match_logical("bot-right-elim", [ps("p |- q, F")], ps("p |- q")) is not None


class TestMatchStructural:
    def test_cut_instance(self):
        m = match_structural(CUT, [ps("|- p"), ps("p |- q")], ps("|- q"))
        assert m is not None and m.atom_assignment["x"] == Atom("p")

    def test_identity_general_vs_atomic(self):
        # schema atoms take compound formulas as well as atoms
        assert match_structural(IDENTITY, [], ps("p & q |- p & q")).atom_assignment == {"x": pf("p & q")}
        assert match_structural(IDENTITY, [], ps("p |- p")).atom_assignment == {"x": Atom("p")}
        assert match_structural(IDENTITY, [], ps("p & q |- q & p")) is None

    def test_contraction_needs_duplicate(self):
        rule = parse_structural_rule("x, x, G |- D => x, G |- D", "contraction-left")
        assert match_structural(rule, [ps("p, p |- q")], ps("p |- q")) is not None
        assert match_structural(rule, [ps("p, r |- q")], ps("p |- q")) is None

    def test_collisions_allowed(self):
        # distinct schema atoms may take the same formula
        rule = parse_structural_rule("|- x ; y |- => x, G |- D, y")
        assert match_structural(rule, [ps("|- p"), ps("p |-")], ps("p |- p")) is not None

    def test_two_slots_one_side(self):
        m = match_structural(CUT, [ps("a |- b, p"), ps("p, c |- d")], ps("a, c |- b, d"))
        assert m is not None
        assert m.slot_assignment["G"] == (Atom("a"),)
        assert m.slot_assignment["G'"] == (Atom("c"),)

    def test_matches_reference_search(self, rng):
        # the same verdict and the same first match as the search in rule order
        found = 0
        for _ in range(5000):
            rule, premises, conclusion = _random_step(rng)
            want = _reference_match(rule, premises, conclusion)
            got = match_structural(rule, premises, conclusion)
            assert (got is None) == (want is None), rule.render()
            if got is not None:
                found += 1
                assert (got.atom_assignment, got.slot_assignment) == (want.atom_assignment, want.slot_assignment)
        assert 3000 < found < 4800  # matches, and misses

    def test_reference_on_calculus_rules(self):
        steps = [
            (CUT, [ps("a |- b, p"), ps("p, c |- d")], ps("a, c |- b, d")),
            (CUT, [ps("p |- p"), ps("p |- p")], ps("p |- p")),
            (LIMITED_CUT_LEFT, [ps("|- p & q"), ps("p & q, a |- b")], ps("a |- b")),
            (R.CONTRACTION_RIGHT, [ps("|- q, p, p")], ps("|- q, p")),
            (WEAKENING_LEFT, [ps("|- q")], ps("p, p |- q")),
        ]
        for rule, premises, conclusion in steps:
            want = _reference_match(rule, premises, conclusion)
            got = match_structural(rule, premises, conclusion)
            assert (got and (got.atom_assignment, got.slot_assignment)) == (
                want and (want.atom_assignment, want.slot_assignment)), rule.name

    def test_reference_on_steps_read_apart(self, rng):
        # each sequent parsed from its own text: no formula of one is
        # another's object, so the bound images are found by equality
        found = 0
        for _ in range(2000):
            rule, premises, conclusion = _random_step(rng)
            premises, conclusion = [ps(s.render()) for s in premises], ps(conclusion.render())
            want = _reference_match(rule, premises, conclusion)
            got = match_structural(rule, premises, conclusion)
            assert (got and (got.atom_assignment, got.slot_assignment)) == (
                want and (want.atom_assignment, want.slot_assignment)), rule.render()
            found += got is not None
        assert 1000 < found < 1900

    def test_program_built_once_per_rule(self):
        R._match_program.cache_clear()
        for i in range(100):
            a, b = Atom(f"a{i}"), Atom(f"b{i}")
            assert match_structural(CUT, [Sequent([a], [b]), Sequent([b], [a])], Sequent([a], [a])) is not None
            assert match_structural(WEAKENING_LEFT, [Sequent([], [b])], Sequent([a], [b])) is not None
            assert match_structural(R.CONTRACTION_RIGHT, [Sequent([], [a, b])], Sequent([], [a])) is None
        assert R._match_program.cache_info().misses == 3


def _reference_match(rule, premises, conclusion):
    """The backtracking search match_structural replaced, kept as the
    reference: the sides in rule order, the schema atoms of a side in name
    order, each unbound one tried on the side's values in formula_key
    order, then the side's open slots, several of them split every way."""
    if len(premises) != len(rule.premises):
        return None
    eqs = []
    for schema, given in zip(list(rule.premises) + [rule.conclusion], list(premises) + [conclusion]):
        eqs.append((schema.atoms_left, schema.slots_left, given.left))
        eqs.append((schema.atoms_right, schema.slots_right, given.right))
    atom_asn, slot_asn = {}, {}

    def solve(i):
        if i == len(eqs):
            return True
        atoms, slots, given = eqs[i]
        return solve_side(list(atoms), slots, list(given), lambda: solve(i + 1))

    def solve_side(atoms, slots, given, k):
        if not atoms:
            pool = sorted(given, key=formula_key)
            free = [s for s in slots if s not in slot_asn]
            for s in slots:
                for f in slot_asn.get(s, ()):
                    if f not in pool:
                        return False
                    pool.remove(f)
            if not free:
                return not pool and k()
            for choice in itertools.product(range(len(free)), repeat=len(pool)):
                parts = [[] for _ in free]
                for f, c in zip(pool, choice):
                    parts[c].append(f)
                for s, part in zip(free, parts):
                    slot_asn[s] = tuple(sorted(part, key=formula_key))
                if k():
                    return True
                for s in free:
                    del slot_asn[s]
            return False
        name, rest = atoms[0], atoms[1:]
        if name in atom_asn:
            if atom_asn[name] not in given:
                return False
            given = list(given)
            given.remove(atom_asn[name])
            return solve_side(rest, slots, given, k)
        for f in sorted(dict.fromkeys(given), key=formula_key):
            atom_asn[name] = f
            left = list(given)
            left.remove(f)
            if solve_side(rest, slots, left, k):
                return True
            del atom_asn[name]
        return False

    return R.StructuralMatch(rule.name, dict(atom_asn), dict(slot_asn)) if solve(0) else None


def _random_step(rng: random.Random):
    """A rule with colliding schema atoms and up to two slots a side, and
    a step instantiating it, one sequent of which is sometimes changed."""
    names = rng.sample(["x", "y", "z"], rng.randint(0, 3))
    forms = [pf(t) for t in ("p", "q", "r", "~p", "p & q")]

    def schema():
        def atoms():
            return [rng.choice(names) for _ in range(rng.randint(0, 2))] if names else []

        return SequentSchema(atoms(), rng.sample("GHK", rng.randint(0, 2)), atoms(), rng.sample("DEF", rng.randint(0, 2)))

    rule = StructuralRule("r", tuple(schema() for _ in range(rng.randint(0, 3))), schema())
    value = {n: rng.choice(forms[:3] if rng.random() < 0.5 else forms) for n in names}
    value.update({s: [rng.choice(forms) for _ in range(rng.randint(0, 2))] for s in "GHKDEF"})

    def instance(schema):
        return Sequent(
            [value[a] for a in schema.atoms_left] + [f for s in schema.slots_left for f in value[s]],
            [value[a] for a in schema.atoms_right] + [f for s in schema.slots_right for f in value[s]],
        )

    steps = [instance(p) for p in rule.premises] + [instance(rule.conclusion)]
    if rng.random() < 0.3:
        i = rng.randrange(len(steps))
        left, right = list(steps[i].left), list(steps[i].right)
        side = rng.choice([left, right])
        if side and rng.random() < 0.5:
            side.pop(rng.randrange(len(side)))
        else:
            side.append(rng.choice(forms))
        steps[i] = Sequent(left, right)
    return rule, steps[:-1], steps[-1]


class TestAtSet:
    def test_examples(self):
        assert at_set(ps("|- p & q")) == {ps("|- p"), ps("|- q")}
        assert at_set(ps("p |- q")) == {ps("p |- q")}
        assert at_set(ps("~p |- q")) == {ps("|- q, p")}
        assert at_set(ps("g |- d, T")) == frozenset()
        assert at_set(ps("T |-")) == {Sequent()}
        assert at_set(ps("F, g |- d")) == frozenset()
        assert at_set(ps("|- p | p")) == {Sequent((), (Atom("p"), Atom("p")))}

    def test_confluence_random_orders(self, rng):
        for _ in range(60):
            s = random_sequent(rng, ["p", "q", "r"], 3)
            base = at_set(s)
            for _ in range(5):
                seed = rng.randint(0, 10**9)
                chooser = lambda cands, r=random.Random(seed): r.randrange(len(cands))
                assert at_set(s, chooser) == base

    def test_semantic_faithfulness(self, rng):
        for _ in range(80):
            s = random_sequent(rng, ["p", "q", "r"], 3)
            members = at_set(s)
            for a in members:
                assert holds_sequent(B, [s], a)
            assert holds_sequent(B, members, s)

    def test_deep_formulas_do_not_recurse(self, rng):
        deep = Atom("p")
        for _ in range(3000):
            deep = Neg(deep)
        wide = Or(And(Atom("p"), Atom("q")), Atom("r"))
        for _ in range(3000):
            wide = Neg(Neg(wide))
        chooser = lambda cands: rng.randrange(len(cands))
        for f, want in ((deep, {ps("|- p")}), (wide, {ps("|- p, r"), ps("|- q, r")})):
            assert at_set(Sequent((), (f,))) == want
            assert at_set(Sequent((), (f,)), chooser) == want


class TestClassification:
    def test_generalized_cuts(self):
        assert classify(LIMITED_CUT_LEFT).is_generalized_cut
        assert classify(EXPLOSIVE_CUT).is_generalized_cut
        cut = classify(CUT)
        assert cut.is_generalized_cut and not cut.introduces_new_variables
        assert cut.cut_formulas == {"x"}

    def test_identity_not_generalized(self):
        ident = classify(IDENTITY)
        assert not ident.is_generalized_cut
        assert ident.introduces_new_variables

    def test_kleq_rule_not_generalized(self):
        rule = parse_structural_rule("G |- D, x ; x, G |- D => y, G |- D, y")
        assert not classify(rule).is_generalized_cut


class TestSigmaExpand:
    def test_limited_cut_conjunction_image(self):
        ground = parse_structural_rule("|- p ; p, r |- s => r |- s")
        sigma = Substitution({"p": pf("p & q")})
        out = sigma_expand(ground, sigma)
        assert len(out) == 1
        rule = next(iter(out))
        assert rule.render() == "|- p ; |- q ; p, q, r |- s => r |- s"

    def test_identity_sigma(self):
        out = sigma_expand(EXPLOSIVE_CUT, Substitution({}))
        assert len(out) == 1
        assert next(iter(out)).schema_key() == EXPLOSIVE_CUT.schema_key()

    def test_explosive_cut_or(self):
        out = sigma_expand(EXPLOSIVE_CUT, Substitution({"x": pf("p | q")}))
        assert len(out) == 1
        rule = next(iter(out))
        assert rule.render() == "|- p, q ; p |- ; q |- => |-"

    def test_with_ground(self):
        grounded = R._rename_rule(LIMITED_CUT_LEFT, {"x": "p"}, {})
        (rule,) = sigma_expand(grounded, Substitution({"p": pf("p & q")}))
        assert rule.render() == "|- p ; |- q ; p, q, G |- D => G |- D"
        assert rule.sources == (0, 0, 1)

    def test_expanded_premises_are_at_set_members_of_their_sources(self, rng):
        # each expanded premise, with its slots, is a member of the At-set of
        # the sigma-image of the base premise it names as its source
        rules = [CUT, LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT, EXPLOSIVE_CUT, *HILBERT.specific]
        rules += [_random_rule(rng, rng.sample(["x", "y", "z"], rng.randint(1, 3))) for _ in range(40)]
        checked = 0
        for rule in rules:
            for _ in range(5):
                sigma = Substitution({a: random_formula(rng, ["p", "q", "r"], 2) for a in rule.schema_atoms()})
                for e in sigma_expand(rule, sigma):
                    assert len(e.sources) == len(e.premises), e.render()
                    for p, i in zip(e.premises, e.sources):
                        base = rule.premises[i]
                        assert (p.slots_left, p.slots_right) == (base.slots_left, base.slots_right)
                        members = at_set(base.instance(sigma, lambda s: Sequent()))
                        assert Sequent(map(Atom, p.atoms_left), map(Atom, p.atoms_right)) in members, e.render()
                        checked += 1
        assert checked > 200


def _canonical_keys(rules) -> set:
    return {canonical_rule(r).schema_key() for r in rules}


class TestBalancedExpansions:
    """The expansion pool, which custom calculi saturate over."""

    def test_depth_zero_is_the_rule_itself(self):
        out = R.expansion_pool(LIMITED_CUT_LEFT, 0)
        assert _canonical_keys(out) == _canonical_keys([LIMITED_CUT_LEFT]) and len(out) == 1

    def test_depth_one_contains_golden_expansions(self):
        out = R.expansion_pool(LIMITED_CUT_LEFT, 1)
        wanted = parse_structural_rule("|- x0 ; |- x1 ; x0, x1, G |- D => G |- D")
        assert _canonical_keys([wanted]) <= _canonical_keys(out)
        out2 = R.expansion_pool(EXPLOSIVE_CUT, 1)
        wanted2 = parse_structural_rule("|- x0, x1 ; x0 |- ; x1 |- => |-")
        assert _canonical_keys([wanted2]) <= _canonical_keys(out2)

    def test_expansions_remain_generalized_cuts(self):
        for base in (LIMITED_CUT_LEFT, EXPLOSIVE_CUT, CUT):
            assert classify(base).is_generalized_cut
            for r in R.expansion_pool(base, 1):
                assert classify(r).is_generalized_cut, r.render()

    def test_expansions_semantically_valid(self, rng):
        # every expansion of a rule valid in its logic stays valid there,
        # also where its schema atoms take the same atom
        pairs = [(LIMITED_CUT_LEFT, "etl"), (EXPLOSIVE_CUT, "ecq"), (CUT, "k")]
        for base, logic in pairs:
            spec = builtin(logic)
            for rule in sorted(R.expansion_pool(base, 1), key=lambda r: r.name):
                subst = {a: Atom(rng.choice(["p", "q"])) for a in rule.schema_atoms()}
                ctx_l = [Atom(rng.choice(["p", "q"]))] if rng.random() < 0.5 else []
                ctx_r = [Atom(rng.choice(["p", "q"]))] if rng.random() < 0.5 else []

                def inst(schema):
                    left = [subst[a] for a in schema.atoms_left]
                    right = [subst[a] for a in schema.atoms_right]
                    if schema.slots_left:
                        left += ctx_l
                    if schema.slots_right:
                        right += ctx_r
                    return Sequent(left, right)

                prems = [inst(s) for s in rule.premises]
                assert holds_sequent(spec, prems, inst(rule.conclusion)), rule.render()


# ---------------------------------------------------------------------------
# Canonical labelling and the expansion pool
# ---------------------------------------------------------------------------


def _canonical_by_permutation(rule: StructuralRule) -> StructuralRule:
    """Reference canonical form: the renaming to x0, x1, ... with the least
    rendering, by trying every permutation of the schema atoms."""
    names = rule.schema_atoms()
    best = None
    for perm in itertools.permutations(range(len(names))):
        r = R._rename_rule(rule, {n: f"x{i}" for n, i in zip(names, perm)}, {})
        if best is None or r.render() < best.render():
            best = r
    if best is None:
        return StructuralRule(rule.render(), rule.premises, rule.conclusion)
    return StructuralRule(best.render(), best.premises, best.conclusion)


def _image(shape, fresh):
    """A shape's formula, its leaves drawn from the iterator of fresh names."""
    return map_atoms(shape, lambda a: Atom(next(fresh)))


def _leaves(shape) -> int:
    return render(shape).count("x")


def _raw_expansions(rule: StructuralRule, combos):
    """The sigma-expansions of the rule, before canonical renaming, for each
    combination of shapes of its schema atoms."""
    names = rule.schema_atoms()
    for combo in combos:
        fresh = (f"_e{i}" for i in itertools.count())
        sigma = Substitution({a: _image(shape, fresh) for a, shape in zip(names, combo)})
        yield from sigma_expand(rule, sigma)


def _reference_effective(calc, depth):
    """The renaming classes of effective_calculus's rules, by the reference
    canonical form: the calculus's rules and the single-conclusion
    expansions of those other than Identity."""
    keys = {_canonical_by_permutation(r).schema_key() for r in calc.specific}
    shapes = R._linear_shapes(depth)
    for r in calc.specific:
        if r.schema_key() == IDENTITY.schema_key():
            continue  # its expansions are weakenings of atomic identities
        for combo in itertools.product(shapes, repeat=len(r.schema_atoms())):
            expanded = list(_raw_expansions(r, [combo]))
            if len(expanded) == 1:
                keys.add(_canonical_by_permutation(expanded[0]).schema_key())
    return keys


_SLOT_CHOICES = ((), ("G",), ("G'",), ("G", "G'"))


def _random_rule(rng: random.Random, names: list[str], max_side: int = 3) -> StructuralRule:
    """A rule over the given schema atoms, repeats allowed, with random slots."""

    def side():
        return [rng.choice(names) for _ in range(rng.randint(0, max_side))] if names else []

    def schema():
        right_slots = tuple(s.replace("G", "D") for s in rng.choice(_SLOT_CHOICES))
        return SequentSchema(side(), rng.choice(_SLOT_CHOICES), side(), right_slots)

    return StructuralRule("r", tuple(schema() for _ in range(rng.randint(0, 4))), schema())


_ATOM_NAMES = ["a", "b", "c", "p", "q", "r", "s", "t", "u", "v", "w", "x0", "x1", "x12", "y", "z"]


class TestCanonicalRule:
    def test_matches_permutation_search_on_expansions(self, rng):
        for rule in (LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT, EXPLOSIVE_CUT, IDENTITY, CUT):
            for depth in (0, 1, 2):
                shapes = R._linear_shapes(depth)
                for e in _raw_expansions(rule, itertools.product(shapes, repeat=len(rule.schema_atoms()))):
                    assert canonical_rule(e) == _canonical_by_permutation(e), e.render()
        # three schema atoms each, 37**3 combinations at depth 2: a sample of
        # those with at most six leaves, where the reference still runs
        shapes = R._linear_shapes(2)
        combos = []
        while len(combos) < 40:
            combo = tuple(rng.choice(shapes) for _ in range(3))
            if sum(map(_leaves, combo)) <= 6:
                combos.append(combo)
        for rule in HILBERT.specific:
            for e in _raw_expansions(rule, combos):
                assert canonical_rule(e) == _canonical_by_permutation(e), e.render()

    def test_matches_permutation_search_on_random_rules(self, rng):
        for i in range(600):
            n = 7 if i % 50 == 0 else rng.randint(0, 5)
            rule = _random_rule(rng, rng.sample(_ATOM_NAMES, n))
            assert canonical_rule(rule) == _canonical_by_permutation(rule), rule.render()

    def test_invariant_under_renaming(self, rng):
        for _ in range(300):
            names = rng.sample(_ATOM_NAMES, rng.randint(0, 14))
            rule = _random_rule(rng, names, max_side=5)
            canon = canonical_rule(rule)
            renamed = R._rename_rule(rule, dict(zip(names, rng.sample(_ATOM_NAMES, len(names)))), {})
            assert canonical_rule(renamed) == canon, rule.render()
            assert canonical_rule(canon) == canon

    def test_schema_key_invariant_under_renaming(self, rng):
        slots = ["G", "G'", "D", "D'"]
        for _ in range(300):
            names = rng.sample(_ATOM_NAMES, rng.randint(0, 6))
            rule = _random_rule(rng, names)
            atoms = dict(zip(names, rng.sample(_ATOM_NAMES, len(names))))
            other = R._rename_rule(rule, atoms, dict(zip(slots, rng.sample(["H", "K", "E", "F"], 4))))
            assert other.schema_key() == rule.schema_key() == canonical_rule(rule).schema_key(), rule.render()

    def test_builtin_of(self):
        builtins = R.COMMON_RULES + (IDENTITY, CUT, LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT, EXPLOSIVE_CUT)
        for rule in builtins:
            assert R.builtin_of(rule) is rule
            atoms = {a: a + "1" for a in rule.schema_atoms()}
            slots = {s: "K" + s.replace("'", "2") for s in rule.slot_names()}
            assert R.builtin_of(R._rename_rule(rule, atoms, slots)) is rule
        # a premise order of its own is another rule
        assert R.builtin_of(StructuralRule("c", CUT.premises[::-1], CUT.conclusion)) is None
        assert R.builtin_of(parse_structural_rule("x, G |- D => G |- D, x")) is None

    def test_renames_once(self, monkeypatch):
        calls = []
        rename = R._rename_rule
        monkeypatch.setattr(R, "_rename_rule", lambda *a: calls.append(a) or rename(*a))
        canonical_rule(parse_structural_rule("|- a, b ; |- a, c ; |- b, d ; |- c, d ; d, G |- D => G |- D"))
        assert len(calls) == 1

    @pytest.mark.parametrize("calc", [builtin_calculus("getl"), builtin_calculus("gecq"), GLP_LC], ids=lambda c: c.name)
    def test_effective_calculus_matches_reference_pool(self, calc, monkeypatch):
        pools = []
        pool = R.expansion_pool
        monkeypatch.setattr(R, "expansion_pool", lambda *a: pools.append(a) or pool(*a))
        for depth in (0, 1, 2):
            eff, exact = effective_calculus(calc, depth)
            if calc.name in ("getl", "gecq"):
                # the context cut join saturates getl and gecq themselves: no pool
                assert (eff, exact) == (calc, True) and not pools
                continue
            assert not exact and eff.name == f"{calc.name}+exp{depth}"
            keys = [canonical_rule(r).schema_key() for r in eff.specific]
            assert len(keys) == len(set(keys)) and set(keys) == _reference_effective(calc, depth)
            assert [r.name for r in eff.specific] == sorted(r.name for r in eff.specific)
            # each member's name resolves to it in the calculus itself
            assert all(calc.rule(r.name) == r for r in eff.specific)


class TestExpansionCap:
    def test_shape_count_is_arithmetic(self):
        for depth in range(-1, 4):
            assert R._shape_count(depth) == len(R._linear_shapes(depth))
        # past the cap the count stops growing: depth 4 alone has about 15M shapes
        assert MAX_EXPANSION_IMAGES < R._shape_count(10**6) < MAX_EXPANSION_IMAGES**3

    def test_cap_admits_depth_two_and_refuses_depth_three(self):
        assert R._shape_count(2) ** 2 <= MAX_EXPANSION_IMAGES < R._shape_count(3)
        with pytest.raises(ResourceCapError):
            R.expansion_pool(EXPLOSIVE_CUT, 3)
        with pytest.raises(ResourceCapError):
            R.expansion_pool(HILBERT.specific[0], 2)  # 37**3 combinations
        assert R.expansion_pool(parse_structural_rule("=> |-", "empty"), 10**6)

    def test_cli_refutation_past_the_cap_exits_three(self, capsys):
        # the chain |- p0, p_i |- p_{i+1}, p12 |- : a gecq refutation step
        # over its 14 facts would take 2**12 transversals
        chain = ["-p", "|- p0"] + [a for i in range(12) for a in ("-p", f"p{i} |- p{i + 1}")] + ["-p", "p12 |-"]
        start = time.perf_counter()
        assert run(["refute", "--calculus", "gecq", *chain]) == 3
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "expansion cap" in err
        # two links fewer, 2**10 transversals, stay under the cap
        assert run(["refute", "--calculus", "gecq", *chain[:-6], "-p", "p10 |-"]) == 0
        capsys.readouterr()


class TestHilbertToStructural:
    def test_lp_ecq_rule(self):
        out = hilbert_to_structural([pf("p & ~p")], pf("q | ~q"))
        assert {r.render() for r in out} == {"p |- ; |- p => q |- q"}

    def test_kleq_rule_grounded(self):
        out = hilbert_to_structural([pf("(p & ~p) | r")], pf("(q | ~q) | r"))
        assert {r.render() for r in out} == {"p |- r ; |- p, r => q |- q, r"}

    def test_explosive(self):
        out = hilbert_to_structural([pf("p"), pf("~p")], None)
        assert {r.render() for r in out} == {"|- p ; p |- => |-"}
        # which is exactly the Explosive Cut pattern
        (rule,) = out
        assert canonical_rule(rule).schema_key() == canonical_rule(EXPLOSIVE_CUT).schema_key()

    def test_oracle_equivalence(self):
        # the structural rules are equivalent to the Hilbert rule under tau:
        # their premises are interderivable with rho(premise) and the set of
        # their conclusions is interderivable with rho(conclusion)
        from supercut.syntax import rho

        def to_sequent(schema):
            return Sequent(
                (Atom(a) for a in schema.atoms_left), (Atom(a) for a in schema.atoms_right)
            )

        prem, concl = pf("p & ~p"), pf("q | ~q")
        rules = hilbert_to_structural([prem], concl)
        structural_premises = [to_sequent(s) for s in next(iter(rules)).premises]
        targets = [to_sequent(r.conclusion) for r in rules]
        for s in structural_premises:
            assert holds_sequent(B, [rho(prem)], s)
        assert holds_sequent(B, structural_premises, rho(prem))
        for t in targets:
            assert holds_sequent(B, [rho(concl)], t)
        assert holds_sequent(B, targets, rho(concl))
