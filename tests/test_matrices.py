"""Matrix laws, builtin logics, the consequence oracle, information order."""

import random

import pytest

from supercut import matrices
from supercut.matrices import (
    B4,
    BOOL2,
    ETL4,
    K3,
    LOGIC_NAMES,
    LP3,
    MAX_VALUATIONS,
    LogicSpec,
    Matrix,
    MatrixError,
    builtin,
    check_info_monotone,
    eval_formula,
    holds,
    holds_sequent,
    information_order,
    product_matrix,
)
from supercut.syntax import (
    And,
    Atom,
    Neg,
    Or,
    ResourceCapError,
    Sequent,
    parse_formula as pf,
    parse_sequent as ps,
    tau,
)

import oracle_agreement
from conftest import random_formula

ALL_MATRICES = (B4, K3, LP3, ETL4, BOOL2)


class TestMatrices:
    def test_laws(self):
        for m in ALL_MATRICES:
            assert m.check_laws(), m.name
        assert product_matrix(ETL4, B4).check_laws()
        assert product_matrix(BOOL2, BOOL2).check_laws()

    def test_builtin_shapes(self):
        b = builtin("b").matrices[0]
        assert set(b.carrier) == {"f", "n", "b", "t"} and b.designated == {"b", "t"}
        k = builtin("k").matrices[0]
        assert set(k.carrier) == {"f", "n", "t"} and k.designated == {"t"}
        etl = builtin("etl").matrices[0]
        assert set(etl.carrier) == {"f", "n", "b", "t"} and etl.designated == {"t"}
        lp = builtin("lp").matrices[0]
        assert set(lp.carrier) == {"f", "b", "t"} and lp.designated == {"b", "t"}
        assert builtin("kleq").matrices == builtin("k").matrices + builtin("lp").matrices
        with pytest.raises(MatrixError):
            builtin("nope")

    def test_negation_fixpoints(self):
        assert B4.neg_of("n") == "n" and B4.neg_of("b") == "b"
        assert B4.neg_of("t") == "f" and B4.neg_of("f") == "t"

    def test_product(self):
        m = product_matrix(ETL4, B4)
        assert len(m.carrier) == 16
        assert m.designated == {"(t,b)", "(t,t)"}
        assert m.neg_of("(t,f)") == "(f,t)"
        m2 = product_matrix(BOOL2, BOOL2)
        assert len(m2.carrier) == 4 and m2.designated == {"(t,t)"}
        assert m.factors == (ETL4, B4) and B4.factors == ()
        nested = product_matrix(product_matrix(BOOL2, K3), LP3)
        assert [f.name for f in nested.factors] == ["BOOL2", "K3", "LP3"]

    def test_dump(self):
        text = BOOL2.dump()
        assert "matrix BOOL2" in text and "neg t = f" in text

    def test_lookup_tables_are_not_part_of_identity(self):
        m = product_matrix(ETL4, B4)
        assert m == builtin("ecq").matrices[0] and hash(m) == hash(builtin("ecq").matrices[0])
        assert m != product_matrix(B4, ETL4)
        assert "_meet" not in repr(BOOL2)
        assert m == Matrix(*(getattr(m, name) for name in m._fields)) and "factors" not in repr(m)

    def test_partial_table_is_rejected(self):
        with pytest.raises(MatrixError):
            Matrix("half", ("f", "t"), BOOL2.meet[:3], BOOL2.join, BOOL2.neg, "t", "f", frozenset("t"))


class TestEval:
    def test_examples(self):
        assert eval_formula(B4, {"p": "b"}, And(Atom("p"), Neg(Atom("p")))) == "b"
        assert eval_formula(B4, {}, pf("T")) == "t"
        assert eval_formula(K3, {"p": "n"}, Or(Atom("p"), Neg(Atom("p")))) == "n"

    def test_missing_binding(self):
        with pytest.raises(MatrixError):
            eval_formula(B4, {}, Atom("p"))


class TestHolds:
    def test_characteristic_rules(self):
        assert holds(builtin("k"), [pf("p | q"), pf("~q | r")], pf("p | r"))
        assert holds(builtin("lp"), [], pf("p | ~p"))
        assert holds(builtin("etl"), [pf("p"), pf("~p | q")], pf("q"))
        assert not holds(builtin("b"), [pf("p"), pf("~p")], pf("q"))

    def test_antitheorems(self):
        disc = pf("(p & ~p) | (q & ~q)")
        assert holds(builtin("k"), [disc], None)
        assert holds(builtin("cl"), [disc], None)
        assert not holds(builtin("etl"), [disc], None)
        assert not holds(builtin("ecq"), [disc], None)
        assert holds(builtin("ecq"), [pf("p & ~p")], None)
        assert not holds(builtin("b"), [pf("p & ~p")], None)

    def test_kleq_is_the_intersection(self):
        # resolution is K-valid but not LP-valid, LEM is LP-valid only
        assert not holds(builtin("kleq"), [pf("p | q"), pf("~q | r")], pf("p | r"))
        assert not holds(builtin("kleq"), [], pf("p | ~p"))
        assert holds(builtin("kleq"), [pf("(p & ~p) | r")], pf("(q | ~q) | r"))

    def test_holds_sequent(self):
        assert holds_sequent(builtin("b"), [ps("|- p & q")], ps("|- p"))
        assert holds_sequent(builtin("lp"), [], ps("|- p | ~p"))
        assert not holds_sequent(builtin("b"), [], ps("p |- p"))


_brute_force_holds = oracle_agreement.brute_force


class TestOracleDifferential:
    """The bit-sliced oracle against per-valuation enumeration."""

    def test_random_queries_every_logic(self, rng):
        verdicts = set()
        for i in range(350):
            spec = builtin(LOGIC_NAMES[i % len(LOGIC_NAMES)])
            atoms = ["p", "q", "r"][: rng.randint(0, 3)]
            prems = [random_formula(rng, atoms, 3) for _ in range(rng.randint(0, 2))]
            concl = None if rng.random() < 0.25 else random_formula(rng, atoms, 3)
            want = _brute_force_holds(spec, prems, concl)
            assert holds(spec, prems, concl) == want, (spec.name, prems, concl)
            verdicts.add((concl is None, want))
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}

    def test_four_atom_ecq(self):
        ecq = builtin("ecq")
        prems = [pf("(p | q) & ~(r & s)"), pf("~p | (s & ~s)")]
        cases = [
            (prems, pf("q | (p & ~p) | (s & ~s)"), True),
            (prems, pf("q & ~s"), False),
            ([pf("p & ~p & (q | r)")], pf("s"), True),  # explosive: not valid in b
            ([pf("(p & ~p) | (q & ~q)"), pf("r | s")], None, False),
        ]
        for gamma, concl, want in cases:
            assert holds(ecq, gamma, concl) == _brute_force_holds(ecq, gamma, concl) == want
        assert not holds(builtin("b"), [pf("p & ~p & (q | r)")], pf("s"))


    def test_factor_route_matches_the_flat_product(self, rng):
        # a product decided through its factors against the same product
        # enumerated over its flat carrier
        products = (product_matrix(ETL4, B4), product_matrix(product_matrix(BOOL2, K3), LP3))
        verdicts = set()
        for i in range(240):
            m = products[i % 2]
            routed = LogicSpec("routed", (m,))
            flat = LogicSpec("flat", (Matrix(*(getattr(m, name) for name in m._fields)),))
            atoms = ["p", "q", "r"][: rng.randint(0, 3)]
            prems = [random_formula(rng, atoms, 3) for _ in range(rng.randint(0, 2))]
            concl = None if rng.random() < 0.3 else random_formula(rng, atoms, 3)
            want = holds(flat, prems, concl)
            assert holds(routed, prems, concl) == want, (m.name, prems, concl)
            verdicts.add((concl is None, want))
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}

    def test_holds_sequent_is_holds_on_tau(self, rng):
        for i in range(120):
            spec = builtin(LOGIC_NAMES[i % len(LOGIC_NAMES)])
            atoms = ["p", "q", "r"][: rng.randint(1, 3)]

            def side():
                return [random_formula(rng, atoms, 2) for _ in range(rng.randint(0, 3))]

            prems = [Sequent(side(), side()) for _ in range(rng.randint(0, 2))]
            goal = Sequent(side(), side())
            assert holds_sequent(spec, prems, goal) == holds(spec, map(tau, prems), tau(goal))

    def test_holds_sequent_against_brute_force_on_tau(self, rng):
        # the members come from one small pool of formula objects, so the
        # premises and the goal share them and a side can repeat one
        verdicts = set()
        for i in range(140):
            spec = builtin(LOGIC_NAMES[i % len(LOGIC_NAMES)])
            atoms = ["p", "q", "r"][: rng.randint(1, 3)]
            pool = [random_formula(rng, atoms, 2) for _ in range(3)]

            def side():
                return [rng.choice(pool) for _ in range(rng.randint(0, 3))]

            prems = [Sequent(side(), side()) for _ in range(rng.randint(0, 2))]
            goal = Sequent(side(), side())
            want = _brute_force_holds(spec, [tau(s) for s in prems], tau(goal))
            assert holds_sequent(spec, prems, goal) == want, (spec.name, prems, goal)
            verdicts.add((spec.name, want))
        assert {name for name, _ in verdicts} == set(LOGIC_NAMES) and {v for _, v in verdicts} == {False, True}


class TestTwoBitPlanes:
    """Algebras that embed in the four Belnap-Dunn values are evaluated as
    told-true/told-false planes; the slot tables stay for the others."""

    def test_embedding_of_each_builtin_algebra(self):
        for m in ALL_MATRICES:
            codes = m._codes
            assert codes is not None, m.name
            assert codes[m.carrier.index(m.top)] == (1, 0) and codes[m.carrier.index(m.bot)] == (0, 1)
            assert len(set(codes)) == len(m.carrier)
        for name in LOGIC_NAMES:
            for m in builtin(name).matrices:
                assert all(fac._codes is not None for fac in m.factors or (m,)), name

    def test_no_embedding(self):
        flat = product_matrix(ETL4, B4)
        assert Matrix(*(getattr(flat, name) for name in flat._fields))._codes is None
        # a De Morgan chain f < a < b < t with ~a = b: B4 has no four-chain
        chain = matrices._lattice_matrix(
            "chain4",
            {"f": {"f", "a", "b", "t"}, "a": {"a", "b", "t"}, "b": {"b", "t"}, "t": {"t"}},
            {"f": "t", "a": "b", "b": "a", "t": "f"},
            "t",
            "f",
            ("b", "t"),
        )
        assert chain.check_laws() and chain._codes is None
        assert holds(LogicSpec("chain", (chain,)), [pf("p | ~p")], pf("q | ~q"))

    def test_the_embedding_is_not_part_of_identity(self):
        copy = oracle_agreement.slot_only(B4)
        assert copy == B4 and hash(copy) == hash(B4) and repr(copy) == repr(B4)
        assert "_codes" not in repr(B4) and "_told" not in repr(B4)

    def test_routes_agree_on_every_logic(self, rng, monkeypatch):
        # no built-in algebra is evaluated through the slot tables
        made = []
        init = matrices._Values.__init__
        monkeypatch.setattr(matrices._Values, "__init__", lambda self, m, *args: made.append((m, type(self))) or init(self, m, *args))
        seen = oracle_agreement.check(rng, 280)
        assert {(m.name, kind) for m, kind in made if m._codes} == {
            ("B4", matrices._Planes), ("K3", matrices._Planes), ("LP3", matrices._Planes),
            ("ETL4", matrices._Planes), ("BOOL2", matrices._Planes)}
        assert all(kind is matrices._Values for m, kind in made if not m._codes)
        assert {s[0] for s in seen} == set(LOGIC_NAMES)
        assert {s[1:3] for s in seen} == {(False, False), (False, True), (True, False), (True, True)}
        assert {s[3] for s in seen} == {False, True}

    def test_atom_slices_cache_is_bounded(self):
        ten = "abcdefghij"
        for name in ("b", "ecq", "k", "lp", "cl"):
            holds(builtin(name), [pf(" & ".join(ten))], pf("a | ~j"))
        info = matrices._atom_slices.cache_info()
        assert info.maxsize == 16 and info.currsize == 16


class TestValuationCap:
    def test_cap_raises_before_enumerating(self):
        eleven = [pf("p & q & r & s & t"), pf("u | v | w | x | y | z")]
        assert len(ETL4.carrier) ** 11 > MAX_VALUATIONS
        with pytest.raises(ResourceCapError, match="valuation cap .* ETL4 over 11 atoms"):
            holds(builtin("ecq"), eleven, None)
        # the same atoms are within the cap on two-valued logic
        assert not holds(builtin("cl"), eleven, None)

    def test_largest_query_within_the_cap(self):
        # 4**10 == MAX_VALUATIONS
        atoms = "abcdefghij"
        prems = [pf(" & ".join(atoms))]
        assert holds(builtin("b"), prems, pf(f"{atoms[-1]} | ~{atoms[0]}"))
        # each factor of the 16-valued ecq is enumerated on its own
        assert holds(builtin("ecq"), prems, pf(f"{atoms[-1]} | ~{atoms[0]}"))

    def test_ecq_over_six_and_seven_atoms(self):
        ecq = builtin("ecq")
        seven = [pf("p & q & r & s"), pf("t | u | v")]
        assert holds(ecq, seven, pf("s & (v | u | t)"))
        assert not holds(ecq, seven, pf("v"))
        assert not holds(ecq, seven, None)
        six = [pf("p & ~p & q"), pf("r | s")]
        assert holds(ecq, six, pf("t"))  # explosive: not valid in b
        assert not holds(builtin("b"), six, pf("t"))
        assert not holds(ecq, [pf("p & q"), pf("r | s | ~t")], pf("t | ~p"))


class TestSampledInvariants:
    def test_weak_conservativity_theorems(self, rng):
        for _ in range(120):
            f = random_formula(rng, ["p", "q", "r"], 3)
            assert holds(builtin("lp"), [], f) == holds(builtin("cl"), [], f)
            assert holds(builtin("b"), [], f) == holds(builtin("k"), [], f)

    def test_weak_conservativity_antitheorems(self, rng):
        for _ in range(120):
            gamma = [random_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(1, 3))]
            assert holds(builtin("k"), gamma, None) == holds(builtin("cl"), gamma, None)
            assert holds(builtin("ecq"), gamma, None) == holds(builtin("etl"), gamma, None)

    def test_contraposition_duality(self, rng):
        for _ in range(120):
            f = random_formula(rng, ["p", "q"], 2)
            g = random_formula(rng, ["p", "q"], 2)
            assert holds(builtin("b"), [f], g) == holds(builtin("b"), [Neg(g)], Neg(f))
            assert holds(builtin("lp"), [f], g) == holds(builtin("k"), [Neg(g)], Neg(f))

    def test_ecq_is_the_explosive_extension_of_b(self, rng):
        # consequence in ecq = consequence in b, or the premises explode
        ecq, b = builtin("ecq"), builtin("b")
        for _ in range(100):
            prems = [random_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(1, 2))]
            concl = random_formula(rng, ["p", "q"], 2)
            lhs = holds(ecq, prems, concl)
            rhs = holds(b, prems, concl) or holds(ecq, prems, None)
            assert lhs == rhs

    def test_monotone_extension_chain(self, rng):
        chain = [builtin(n) for n in ("b", "k", "cl")] + [builtin("etl")]
        for _ in range(100):
            prems = [random_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
            concl = random_formula(rng, ["p", "q"], 2)
            if holds(builtin("b"), prems, concl):
                for spec in (builtin("k"), builtin("etl"), builtin("lp"), builtin("cl")):
                    assert holds(spec, prems, concl)


class TestInformationOrder:
    def test_b4_order(self):
        order = information_order(B4)
        assert ("n", "b") in order and ("n", "f") in order and ("n", "t") in order
        assert ("f", "t") not in order and ("t", "f") not in order

    def test_monotone(self):
        assert check_info_monotone(B4)
        assert check_info_monotone(K3)
        assert check_info_monotone(LP3)
        with pytest.raises(MatrixError):
            information_order(BOOL2)
