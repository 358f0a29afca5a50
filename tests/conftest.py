"""Shared generators and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from supercut.matrices import Matrix, eval_formula
from supercut.proofs import Proof
from supercut.rules import (
    IDENTITY,
    LIMITED_CUT_LEFT,
    LIMITED_CUT_RIGHT,
    Calculus,
    expansion,
    hilbert_to_structural,
    parse_structural_rule,
)
from supercut.syntax import And, Atom, BOT, Formula, Neg, Or, Sequent, TOP, parse_formula

GLP_LC = Calculus("glp+lc", (IDENTITY, LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT))
# the structural rules of the Hilbert rules ~p | q / r and p & ~q / q | r:
# "p |- q => |- r" and "q |- ; |- p => |- q, r"
HILBERT = Calculus("hilbert", tuple(sorted(
    hilbert_to_structural([parse_formula("~p | q")], parse_formula("r"))
    | hilbert_to_structural([parse_formula("p & ~q")], parse_formula("q | r")),
    key=lambda r: r.name)))


# new names for the built-in rules, their schema atom and their slots
RENAMED_RULES = {"identity": "id", "cut": "kut", "limited-cut-left": "lc-left", "limited-cut-right": "lc-right",
                 "explosive-cut": "ecut"}
_RENAMED_PARTS = {"x": "y", "G": "H", "D": "E", "G'": "H2", "D'": "E2"}


def renamed(calc: Calculus) -> Calculus:
    """calc with each rule, its schema atom and its slots renamed: the
    built-in rules are then known by their schemas alone."""
    def rule(r):
        text = re.sub(r"[A-Za-z][A-Za-z0-9_']*", lambda m: _RENAMED_PARTS[m.group()], r.render())
        return parse_structural_rule(text, RENAMED_RULES[r.name])

    return Calculus(calc.name + "-renamed", tuple(map(rule, calc.specific)))


def random_formula(rng: random.Random, atoms: list[str], depth: int, constants: bool = True) -> Formula:
    leaves = [Atom(a) for a in atoms]
    if constants:
        leaves += [TOP, BOT]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.choice(["neg", "and", "or"])
    if kind == "neg":
        return Neg(random_formula(rng, atoms, depth - 1, constants))
    left = random_formula(rng, atoms, depth - 1, constants)
    right = random_formula(rng, atoms, depth - 1, constants)
    return And(left, right) if kind == "and" else Or(left, right)


def random_sequent(rng: random.Random, atoms: list[str], depth: int, max_side: int = 2) -> Sequent:
    def side():
        return [random_formula(rng, atoms, depth) for _ in range(rng.randint(0, max_side))]

    return Sequent(side(), side())


def wide_context_cut(n: int, rng: random.Random) -> tuple[Proof, list[Sequent]]:
    """One getl context cut step MC({a}, B) of n atoms over its premises,
    with ``d`` for context: the core ``a |- B``, then ``|- d, a`` and
    ``b |- d`` for each b in B. Its schema atoms x0, x1, ... take the
    atoms in a random order, so that name order pairs them wrongly."""
    names = [f"a{i}" for i in range(n)]
    rng.shuffle(names)
    atoms = [Atom(a) for a in names]  # x<i> takes atoms[i]
    d = Atom("d")
    premises = [Sequent(atoms[:1], atoms[1:]), Sequent((), (d, atoms[0]))]
    premises += [Sequent((b,), (d,)) for b in atoms[1:]]
    image = " | ".join(["~x0"] + [f"x{i}" for i in range(1, n)])
    rule, _ = expansion(LIMITED_CUT_LEFT, (parse_formula(image),))
    leaves = [Proof(s, "premise", (), i) for i, s in enumerate(premises)]
    # the side premise of schema atom x<i> is premises[i + 1]
    order = [int((p.atoms_right or p.atoms_left)[0][1:]) + 1 for p in rule.premises[1:]]
    return Proof(Sequent((), (d,)), rule.name, (leaves[0], *(leaves[i] for i in order))), premises


def semantic_classes(atoms: list[str], depth: int, matrix: Matrix) -> list[Formula]:
    """One representative per truth table over the matrix, for formulas over
    the given atoms up to the given connective depth.

    Combining representatives is exact because evaluation is compositional.
    """
    valuations = [dict(zip(atoms, v)) for v in itertools.product(matrix.carrier, repeat=len(atoms))]

    def table(f: Formula):
        return tuple(eval_formula(matrix, v, f) for v in valuations)

    reps: dict[tuple, Formula] = {}
    for f in [Atom(a) for a in atoms] + [TOP, BOT]:
        reps.setdefault(table(f), f)
    for _ in range(depth):
        prev = list(reps.values())
        for a in prev:
            reps.setdefault(table(Neg(a)), Neg(a))
        for a in prev:
            for b in prev:
                for ctor in (And, Or):
                    f = ctor(a, b)
                    reps.setdefault(table(f), f)
    return list(reps.values())


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20250808)
