"""The oracle's two evaluation routes against each other and against
``eval_formula``, with the standard library alone.

    python3.10 tests/oracle_agreement.py [QUERIES]

It needs no pytest, so it checks the package under any interpreter the
project declares (``requires-python``). On seeded queries over all seven
logic names, ``holds`` and ``holds_sequent`` give the same verdicts through
the told-true/told-false planes, through the slot tables, and under one
valuation at a time by ``eval_formula``. The queries hold constants, empty
sides, repeated members and ``None`` conclusions. Exits 1 on the first
disagreement. ``tests/test_matrices.py`` runs ``check`` under pytest.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from supercut.matrices import LOGIC_NAMES, LogicSpec, Matrix, builtin, eval_formula, holds, holds_sequent
from supercut.syntax import BOT, TOP, And, Atom, Neg, Or, Sequent, atoms_of, tau


def slot_only(m: Matrix) -> Matrix:
    """An equal copy of m, its factors copied alike, with no embedding in
    the four values, so that ``holds`` evaluates it through its tables."""
    copy = Matrix(*(getattr(m, name) for name in m._fields), tuple(map(slot_only, m.factors)))
    object.__setattr__(copy, "_codes", None)
    return copy


def brute_force(spec: LogicSpec, premises, conclusion) -> bool:
    """Reference consequence: ``eval_formula`` under one valuation at a time."""
    forms = list(premises) + ([conclusion] if conclusion is not None else [])
    names = sorted(set().union(*map(atoms_of, forms)))
    for m in spec.matrices:
        for values in itertools.product(m.carrier, repeat=len(names)):
            val = dict(zip(names, values))
            if all(eval_formula(m, val, p) in m.designated for p in premises):
                if conclusion is None or eval_formula(m, val, conclusion) not in m.designated:
                    return False
    return True


def _formula(rng: random.Random, atoms: list[str], depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Atom(a) for a in atoms] + [TOP, BOT])
    kind = rng.choice((Neg, And, Or))
    if kind is Neg:
        return Neg(_formula(rng, atoms, depth - 1))
    return kind(_formula(rng, atoms, depth - 1), _formula(rng, atoms, depth - 1))


def check(rng: random.Random, queries: int) -> set[tuple]:
    """Ask ``queries`` seeded formula and sequent queries, cycling through
    the logic names, and assert that the routes agree on each. Returns the
    (logic, conclusion is None, formula verdict, sequent verdict) seen."""
    seen = set()
    for i in range(queries):
        name = LOGIC_NAMES[i % len(LOGIC_NAMES)]
        spec = builtin(name)
        slots = LogicSpec(name, tuple(map(slot_only, spec.matrices)))
        atoms = ["p", "q", "r"][: rng.randint(0, 3)]
        # members come from one small pool, so sides repeat them and the
        # items share them
        pool = [_formula(rng, atoms, 3) for _ in range(3)] + [TOP, BOT]

        def side():
            return [rng.choice(pool) for _ in range(rng.randint(0, 3))]

        prems = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
        concl = None if rng.random() < 0.25 else rng.choice(pool)
        verdict = holds(spec, prems, concl)
        assert verdict == holds(slots, prems, concl) == brute_force(spec, prems, concl), (name, prems, concl)
        seq_prems = [Sequent(side(), side()) for _ in range(rng.randint(0, 2))]
        goal = Sequent(side(), side())
        seq_verdict = holds_sequent(spec, seq_prems, goal)
        want = brute_force(spec, [tau(s) for s in seq_prems], tau(goal))
        assert seq_verdict == holds_sequent(slots, seq_prems, goal) == want, (name, seq_prems, goal)
        seen.add((name, concl is None, verdict, seq_verdict))
    return seen


def main(argv: list[str]) -> int:
    queries = int(argv[1]) if len(argv) > 1 else 700
    try:
        seen = check(random.Random(20250808), queries)
    except AssertionError as exc:
        print(f"routes disagree: {exc}")
        return 1
    logics = sorted({s[0] for s in seen})
    print(f"Python {sys.version.split()[0]}: the routes agree on {queries} formula and {queries} sequent queries"
          f" over {', '.join(logics)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
