"""Finite logical matrices and exhaustive consequence checking.

This module is the independent semantic oracle: every syntactic verdict in
the package can be cross-checked against exhaustive valuation enumeration
over these matrices. The enumeration is bit-sliced: a subformula's value
over all valuations at once is one bitmask per carrier element, so each
subformula is evaluated once per query, not once per valuation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .syntax import (
    And,
    Atom,
    Bot,
    Formula,
    Neg,
    Or,
    ResourceCapError,
    Sequent,
    SupercutError,
    Top,
    atoms_of,
    tau,
)


class MatrixError(SupercutError):
    pass


@dataclass(frozen=True)
class Matrix:
    """A finite algebra with a designated subset.

    Operation tables are total maps over the carrier; ``check_laws`` verifies
    the lattice/De Morgan equations by enumeration.
    """

    name: str
    carrier: tuple[str, ...]
    meet: tuple[tuple[str, str, str], ...]
    join: tuple[tuple[str, str, str], ...]
    neg: tuple[tuple[str, str], ...]
    top: str
    bot: str
    designated: frozenset[str]
    # Lookup tables derived from the rows above once, in __post_init__; they
    # take no part in equality, hashing or repr. ``_indexed`` holds the
    # operations over carrier indices for bit-sliced evaluation: the meet
    # and join tables, the neg table, the top and bottom indices and the
    # designated indices.
    _meet: dict[tuple[str, str], str] = field(init=False, repr=False, compare=False)
    _join: dict[tuple[str, str], str] = field(init=False, repr=False, compare=False)
    _neg: dict[str, str] = field(init=False, repr=False, compare=False)
    _indexed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        meet = {(a, b): c for a, b, c in self.meet}
        join = {(a, b): c for a, b, c in self.join}
        neg = dict(self.neg)
        index = {c: i for i, c in enumerate(self.carrier)}
        try:
            indexed = (
                tuple(tuple(index[meet[a, b]] for b in self.carrier) for a in self.carrier),
                tuple(tuple(index[join[a, b]] for b in self.carrier) for a in self.carrier),
                tuple(index[neg[a]] for a in self.carrier),
                index[self.top],
                index[self.bot],
                tuple(sorted(index[d] for d in self.designated)),
            )
        except KeyError as exc:
            raise MatrixError(f"matrix {self.name}: tables not total over the carrier at {exc}") from None
        object.__setattr__(self, "_meet", meet)
        object.__setattr__(self, "_join", join)
        object.__setattr__(self, "_neg", neg)
        object.__setattr__(self, "_indexed", indexed)

    def meet_of(self, a: str, b: str) -> str:
        return self._meet[a, b]

    def join_of(self, a: str, b: str) -> str:
        return self._join[a, b]

    def neg_of(self, a: str) -> str:
        return self._neg[a]

    def check_laws(self) -> bool:
        """Lattice laws, De Morgan/involution of neg, and extrema, exhaustively."""
        m, j, n = self.meet_of, self.join_of, self.neg_of
        for x in self.carrier:
            if m(x, x) != x or j(x, x) != x:
                return False
            if n(n(x)) != x:
                return False
            if m(x, self.bot) != self.bot or j(x, self.top) != self.top:
                return False
            if m(x, self.top) != x or j(x, self.bot) != x:
                return False
            for y in self.carrier:
                if m(x, y) != m(y, x) or j(x, y) != j(y, x):
                    return False
                if m(x, j(x, y)) != x or j(x, m(x, y)) != x:
                    return False
                if n(m(x, y)) != j(n(x), n(y)):
                    return False
                for z in self.carrier:
                    if m(m(x, y), z) != m(x, m(y, z)):
                        return False
                    if j(j(x, y), z) != j(x, j(y, z)):
                        return False
                    if m(x, j(y, z)) != j(m(x, y), m(x, z)):
                        return False
        return True

    def dump(self) -> str:
        """One line per table row, for docs and golden tests."""
        lines = [f"matrix {self.name}: carrier {{{', '.join(self.carrier)}}}"]
        lines.append(f"designated {{{', '.join(sorted(self.designated))}}}")
        lines.append(f"top {self.top}  bot {self.bot}")
        for a in self.carrier:
            lines.append(f"neg {a} = {self.neg_of(a)}")
        for a in self.carrier:
            for b in self.carrier:
                lines.append(f"meet {a} {b} = {self.meet_of(a, b)}")
        for a in self.carrier:
            for b in self.carrier:
                lines.append(f"join {a} {b} = {self.join_of(a, b)}")
        return "\n".join(lines)


def _lattice_matrix(
    name: str,
    order: dict[str, set[str]],
    neg: dict[str, str],
    top: str,
    bot: str,
    designated: Iterable[str],
) -> Matrix:
    """Build a matrix from a partial order given as 'x <= elements above x'."""
    carrier = tuple(sorted(order))

    def leq(a: str, b: str) -> bool:
        return b in order[a]

    def meet(a: str, b: str) -> str:
        lows = [c for c in carrier if leq(c, a) and leq(c, b)]
        tops = [c for c in lows if all(leq(d, c) for d in lows)]
        assert len(tops) == 1, (name, a, b, lows)
        return tops[0]

    def join(a: str, b: str) -> str:
        ups = [c for c in carrier if leq(a, c) and leq(b, c)]
        bots = [c for c in ups if all(leq(c, d) for d in ups)]
        assert len(bots) == 1, (name, a, b, ups)
        return bots[0]

    return Matrix(
        name=name,
        carrier=carrier,
        meet=tuple((a, b, meet(a, b)) for a in carrier for b in carrier),
        join=tuple((a, b, join(a, b)) for a in carrier for b in carrier),
        neg=tuple((a, neg[a]) for a in carrier),
        top=top,
        bot=bot,
        designated=frozenset(designated),
    )


# The four-element De Morgan diamond: f <= n <= t, f <= b <= t, n and b
# incomparable; negation swaps t/f and fixes n and b.
_B4_ORDER = {
    "f": {"f", "n", "b", "t"},
    "n": {"n", "t"},
    "b": {"b", "t"},
    "t": {"t"},
}
_B4_NEG = {"f": "t", "t": "f", "n": "n", "b": "b"}

B4 = _lattice_matrix("B4", _B4_ORDER, _B4_NEG, "t", "f", ("b", "t"))
ETL4 = _lattice_matrix("ETL4", _B4_ORDER, _B4_NEG, "t", "f", ("t",))
K3 = _lattice_matrix(
    "K3",
    {"f": {"f", "n", "t"}, "n": {"n", "t"}, "t": {"t"}},
    {"f": "t", "t": "f", "n": "n"},
    "t",
    "f",
    ("t",),
)
LP3 = _lattice_matrix(
    "LP3",
    {"f": {"f", "b", "t"}, "b": {"b", "t"}, "t": {"t"}},
    {"f": "t", "t": "f", "b": "b"},
    "t",
    "f",
    ("b", "t"),
)
BOOL2 = _lattice_matrix(
    "BOOL2",
    {"f": {"f", "t"}, "t": {"t"}},
    {"f": "t", "t": "f"},
    "t",
    "f",
    ("t",),
)


def product_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Componentwise product; designated pairs are designated x designated."""

    def pid(x: str, y: str) -> str:
        return f"({x},{y})"

    carrier = [(x, y) for x in a.carrier for y in b.carrier]
    return Matrix(
        name=f"{a.name}x{b.name}",
        carrier=tuple(pid(x, y) for x, y in carrier),
        meet=tuple(
            (pid(x1, y1), pid(x2, y2), pid(a.meet_of(x1, x2), b.meet_of(y1, y2)))
            for x1, y1 in carrier
            for x2, y2 in carrier
        ),
        join=tuple(
            (pid(x1, y1), pid(x2, y2), pid(a.join_of(x1, x2), b.join_of(y1, y2)))
            for x1, y1 in carrier
            for x2, y2 in carrier
        ),
        neg=tuple((pid(x, y), pid(a.neg_of(x), b.neg_of(y))) for x, y in carrier),
        top=pid(a.top, b.top),
        bot=pid(a.bot, b.bot),
        designated=frozenset(
            pid(x, y) for x in a.designated for y in b.designated
        ),
    )


# ---------------------------------------------------------------------------
# Logic specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogicSpec:
    """A single matrix or a nonempty intersection of logic specs."""

    name: str
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if not self.matrices:
            raise MatrixError("intersection must be nonempty")


def single(m: Matrix, name: str | None = None) -> LogicSpec:
    return LogicSpec(name or m.name.lower(), (m,))


def intersection(name: str, specs: Iterable[LogicSpec]) -> LogicSpec:
    mats: list[Matrix] = []
    for sp in specs:
        mats.extend(sp.matrices)
    return LogicSpec(name, tuple(mats))


_BUILTINS: dict[str, LogicSpec] = {}


def builtin(name: str) -> LogicSpec:
    """Look up a builtin logic: b, k, lp, etl, ecq, cl, kleq."""
    key = name.lower()
    if not _BUILTINS:
        _BUILTINS.update(
            {
                "b": single(B4, "b"),
                "k": single(K3, "k"),
                "lp": single(LP3, "lp"),
                "etl": single(ETL4, "etl"),
                "ecq": single(product_matrix(ETL4, B4), "ecq"),
                "cl": single(BOOL2, "cl"),
            }
        )
        _BUILTINS["kleq"] = intersection("kleq", (_BUILTINS["k"], _BUILTINS["lp"]))
    if key not in _BUILTINS:
        raise MatrixError(f"unknown logic: {name}")
    return _BUILTINS[key]


LOGIC_NAMES = ("b", "k", "lp", "etl", "ecq", "cl", "kleq")


# ---------------------------------------------------------------------------
# Evaluation and consequence
# ---------------------------------------------------------------------------


def eval_formula(m: Matrix, valuation: dict[str, str], f: Formula) -> str:
    """Homomorphic evaluation under one valuation; raises on missing atom
    bindings. The tests check the bit-sliced ``holds`` against it."""
    if isinstance(f, Atom):
        try:
            return valuation[f.name]
        except KeyError:
            raise MatrixError(f"valuation missing atom {f.name!r}") from None
    if isinstance(f, Top):
        return m.top
    if isinstance(f, Bot):
        return m.bot
    if isinstance(f, Neg):
        return m.neg_of(eval_formula(m, valuation, f.arg))
    if isinstance(f, And):
        return m.meet_of(eval_formula(m, valuation, f.left), eval_formula(m, valuation, f.right))
    if isinstance(f, Or):
        return m.join_of(eval_formula(m, valuation, f.left), eval_formula(m, valuation, f.right))
    raise TypeError(f"not a formula: {f!r}")


# Beyond this many valuations per matrix ``holds`` raises ResourceCapError:
# at the cap a bit-sliced value takes 128 KiB per carrier element.
MAX_VALUATIONS = 2**20


def _atom_slices(n: int, j: int, count: int) -> tuple[int, ...]:
    """The bit-sliced value of the atom at position ``j`` of the atom tuple.

    Valuation i gives that atom the carrier element ``(i // n**j) % n``:
    element v owns bits ``[v*n**j, (v+1)*n**j)`` of every period of
    ``n**(j+1)`` bits, and multiplying one period by ``repeat`` copies it
    across all ``count`` bits.
    """
    run = n**j
    period = run * n
    repeat = ((1 << count) - 1) // ((1 << period) - 1)
    return tuple((((1 << run) - 1) << (v * run)) * repeat for v in range(n))


def _holds_single(
    m: Matrix,
    atom_tuple: tuple[str, ...],
    premises: tuple[Formula, ...],
    conclusion: Optional[Formula],
) -> bool:
    """Consequence in one matrix over every valuation of ``atom_tuple``.

    A subformula's value is a tuple with one int per carrier index: bit i of
    slot v is set when the subformula takes element v under valuation i.
    """
    meet, join, neg, top, bot, designated = m._indexed
    n = len(m.carrier)
    count = n ** len(atom_tuple)
    full = (1 << count) - 1
    position = {a: j for j, a in enumerate(atom_tuple)}
    memo: dict[Formula, tuple[int, ...]] = {}

    def value(f: Formula) -> tuple[int, ...]:
        out = memo.get(f)
        if out is not None:
            return out
        if isinstance(f, Atom):
            out = _atom_slices(n, position[f.name], count)
        else:
            slots = [0] * n
            if isinstance(f, (Top, Bot)):
                slots[top if isinstance(f, Top) else bot] = full
            elif isinstance(f, Neg):
                for x, bits in enumerate(value(f.arg)):
                    slots[neg[x]] |= bits
            elif isinstance(f, (And, Or)):
                table = meet if isinstance(f, And) else join
                right = [(y, bits) for y, bits in enumerate(value(f.right)) if bits]
                for x, left in enumerate(value(f.left)):
                    if left:
                        row = table[x]
                        for y, bits in right:
                            slots[row[y]] |= left & bits
            else:
                raise TypeError(f"not a formula: {f!r}")
            out = tuple(slots)
        memo[f] = out
        return out

    def designation_mask(f: Formula) -> int:
        slots = value(f)
        mask = 0
        for v in designated:
            mask |= slots[v]
        return mask

    prem_mask = full
    for p in premises:
        prem_mask &= designation_mask(p)
        if not prem_mask:
            return True
    if conclusion is None:
        # Antitheorem check: no valuation designates all premises.
        return False
    return prem_mask & ~designation_mask(conclusion) == 0


def holds(
    spec: LogicSpec,
    premises: Iterable[Formula],
    conclusion: Optional[Formula] = None,
) -> bool:
    """Matrix consequence by exhaustive, bit-sliced valuation enumeration.

    A ``None`` conclusion asks whether the premises form an antitheorem.
    For intersections the verdict is the conjunction over all matrices.
    Raises ResourceCapError when a matrix has more than ``MAX_VALUATIONS``
    valuations of the query's atoms.
    """
    prem = tuple(premises)
    names: set[str] = set()
    for f in prem if conclusion is None else prem + (conclusion,):
        names |= atoms_of(f)
    atom_tuple = tuple(sorted(names))
    for m in spec.matrices:
        count = len(m.carrier) ** len(atom_tuple)
        if count > MAX_VALUATIONS:
            raise ResourceCapError(
                f"valuation cap {MAX_VALUATIONS} exceeded: {m.name} over "
                f"{len(atom_tuple)} atoms has {count} valuations"
            )
    return all(_holds_single(m, atom_tuple, prem, conclusion) for m in spec.matrices)


def holds_sequent(spec: LogicSpec, premises: Iterable[Sequent], conclusion: Sequent) -> bool:
    """Sequent-level consequence via the tau transformer."""
    return holds(spec, (tau(s) for s in premises), tau(conclusion))


# ---------------------------------------------------------------------------
# Information order
# ---------------------------------------------------------------------------

_INFO_ORDERS: dict[str, tuple[tuple[str, str], ...]] = {
    # n is least informative, b most; f and t are incomparable middles.
    "B4": (
        ("n", "n"), ("f", "f"), ("t", "t"), ("b", "b"),
        ("n", "f"), ("n", "t"), ("n", "b"), ("f", "b"), ("t", "b"),
    ),
    "K3": (("n", "n"), ("f", "f"), ("t", "t"), ("n", "f"), ("n", "t")),
    "LP3": (("f", "f"), ("t", "t"), ("b", "b"), ("f", "b"), ("t", "b")),
}


def information_order(m: Matrix) -> frozenset[tuple[str, str]]:
    """The information order as a set of (lower, higher) pairs."""
    if m.name not in _INFO_ORDERS:
        raise MatrixError(f"no information order defined for {m.name}")
    return frozenset(_INFO_ORDERS[m.name])


def check_info_monotone(m: Matrix) -> bool:
    """All operations monotone with respect to the information order."""
    order = information_order(m)

    def leq(a: str, b: str) -> bool:
        return (a, b) in order

    for x1, y1 in itertools.product(m.carrier, repeat=2):
        if not leq(x1, y1):
            continue
        if not leq(m.neg_of(x1), m.neg_of(y1)):
            return False
        for x2, y2 in itertools.product(m.carrier, repeat=2):
            if not leq(x2, y2):
                continue
            if not leq(m.meet_of(x1, x2), m.meet_of(y1, y2)):
                return False
            if not leq(m.join_of(x1, x2), m.join_of(y1, y2)):
                return False
    return True
