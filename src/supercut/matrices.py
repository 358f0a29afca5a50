"""Finite logical matrices and exhaustive consequence checking.

This module is the independent semantic oracle: every syntactic verdict in
the package can be cross-checked against exhaustive valuation enumeration
over these matrices. The enumeration is bit-sliced: a subformula's value
over all valuations at once is a few bitmasks over the valuations, so each
subformula is evaluated once per query, not once per valuation. An algebra
that embeds in the four Belnap-Dunn values, as every built-in one does,
holds a value as two masks, told true and told false, and evaluates a
connective in one or two mask operations; any other algebra holds one mask
per carrier element and evaluates through its tables. A product matrix is
enumerated factor by factor, and factors with the same operation tables
share one evaluation: the 16-valued ecq matrix costs one four-valued pass.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .syntax import (
    And,
    Atom,
    BOT,
    Bot,
    Formula,
    Neg,
    Or,
    ResourceCapError,
    Sequent,
    SupercutError,
    TOP,
    Top,
    Value,
    atoms_of,
    fold,
    operands,
)


class MatrixError(SupercutError):
    pass


class Matrix(Value):
    """A finite algebra with a designated subset.

    Operation tables are total maps over the carrier; ``check_laws`` verifies
    the lattice/De Morgan equations by enumeration.

    ``factors`` holds the factors of a product matrix, flattened; () for any
    other matrix. ``holds`` decides a product through its factors. The
    lookup tables are derived from the rows once, at construction. Neither
    is a field, so neither takes part in equality, hashing or repr; a
    pickle passes ``factors`` as the constructor's last argument. ``_ops``
    holds the operations over carrier indices for bit-sliced evaluation:
    the meet and join tables, the neg table, and the top and bottom
    indices. Matrices with equal ``_ops`` differ only in
    ``_designated_at``, the designated indices. ``_codes`` is the
    algebra's embedding in the four Belnap-Dunn values (``_embedding``),
    or None; with one, ``_told`` is None when the matrix designates
    exactly the values told true, else its designated (T, F) pairs.
    """

    _fields = ("name", "carrier", "meet", "join", "neg", "top", "bot", "designated")
    __slots__ = _fields + ("factors", "_meet", "_join", "_neg", "_ops", "_designated_at", "_codes", "_told")

    def __init__(
        self,
        name: str,
        carrier: tuple[str, ...],
        meet: tuple[tuple[str, str, str], ...],
        join: tuple[tuple[str, str, str], ...],
        neg: tuple[tuple[str, str], ...],
        top: str,
        bot: str,
        designated: frozenset[str],
        factors: tuple[Matrix, ...] = (),
    ):
        meet_at = {(a, b): c for a, b, c in meet}
        join_at = {(a, b): c for a, b, c in join}
        neg_at = dict(neg)
        index = {c: i for i, c in enumerate(carrier)}
        try:
            ops = (
                tuple(tuple(index[meet_at[a, b]] for b in carrier) for a in carrier),
                tuple(tuple(index[join_at[a, b]] for b in carrier) for a in carrier),
                tuple(index[neg_at[a]] for a in carrier),
                index[top],
                index[bot],
            )
            designated_at = tuple(sorted(index[d] for d in designated))
        except KeyError as exc:
            raise MatrixError(f"matrix {name}: tables not total over the carrier at {exc}") from None
        codes = _embedding(ops)
        told = codes and tuple(sorted({codes[v] for v in designated_at}))
        if codes and set(told) == {c for c in codes if c[0]}:
            told = None
        # in the order of __slots__
        values = (name, carrier, meet, join, neg, top, bot, designated, factors, meet_at, join_at, neg_at, ops,
                  designated_at, codes, told)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def _args(self) -> tuple:
        return super()._args() + (self.factors,)

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


# The four Belnap-Dunn values t, f, b and n as (told true, told false) bits
_BELNAP = ((1, 0), (0, 1), (1, 1), (0, 0))


def _embedding(ops: tuple) -> Optional[tuple[tuple[int, int], ...]]:
    """The (told true, told false) pair of each carrier index, when some
    one-to-one map into the four Belnap-Dunn values sends top to t = (1,0)
    and bottom to f = (0,1) and agrees with every meet, join and neg entry:
    a meet is ``(T & T', F | F')``, a join ``(T | T', F & F')`` and neg
    swaps the pair. None when no map does, as for any carrier of more than
    four elements."""
    meet, join, neg, top, bot = ops
    n = range(len(neg))
    for codes in itertools.permutations(_BELNAP, len(neg)):
        if (codes[top] == (1, 0) and codes[bot] == (0, 1)
                and all(codes[neg[a]] == codes[a][::-1] for a in n)
                and all(codes[meet[a][b]] == (codes[a][0] & codes[b][0], codes[a][1] | codes[b][1])
                        and codes[join[a][b]] == (codes[a][0] | codes[b][0], codes[a][1] & codes[b][1])
                        for a in n for b in n)):
            return codes
    return None


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
    """Componentwise product; designated pairs are designated x designated.
    Its ``factors`` are those of a and b, nested products flattened."""

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
        factors=(a.factors or (a,)) + (b.factors or (b,)),
    )


# ---------------------------------------------------------------------------
# Logic specifications
# ---------------------------------------------------------------------------


class LogicSpec(Value):
    """A single matrix or a nonempty intersection of logic specs."""

    __slots__ = _fields = ("name", "matrices")

    def __init__(self, name: str, matrices: tuple[Matrix, ...]):
        if not matrices:
            raise MatrixError("intersection must be nonempty")
        super().__init__(name, matrices)


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
    bindings. The tests check the bit-sliced ``holds`` against it. Built from
    an explicit stack, so a deep formula does not recurse."""
    values: list[str] = []
    todo: list[tuple[Formula, bool]] = [(f, False)]
    while todo:
        g, operands_done = todo.pop()
        if isinstance(g, Atom):
            try:
                values.append(valuation[g.name])
            except KeyError:
                raise MatrixError(f"valuation missing atom {g.name!r}") from None
        elif isinstance(g, Top):
            values.append(m.top)
        elif isinstance(g, Bot):
            values.append(m.bot)
        elif operands_done:
            if isinstance(g, Neg):
                values.append(m.neg_of(values.pop()))
            else:
                right = values.pop()
                values.append((m.meet_of if isinstance(g, And) else m.join_of)(values.pop(), right))
        elif isinstance(g, (Neg, And, Or)):
            todo.append((g, True))
            todo.extend([(g.arg, False)] if isinstance(g, Neg) else [(g.right, False), (g.left, False)])
        else:
            raise TypeError(f"not a formula: {g!r}")
    return values[0]


# Beyond this many valuations of one enumerated matrix ``holds`` raises
# ResourceCapError: at the cap a bit-sliced value takes two planes of 128 KiB
# in an algebra that embeds in the four Belnap-Dunn values, and 128 KiB per
# carrier element in any other. A product is enumerated factor by factor, so
# the cap applies to each factor.
MAX_VALUATIONS = 2**20


@lru_cache(maxsize=16)
def _atom_slices(n: int, j: int, count: int) -> tuple[int, ...]:
    """The bit-sliced value of the atom at position ``j`` of the atom tuple.

    Valuation i gives that atom the carrier element ``(i // n**j) % n``:
    element v owns bits ``[v*n**j, (v+1)*n**j)`` of every period of
    ``n**(j+1)`` bits, and multiplying one period by ``repeat`` copies it
    across all ``count`` bits. The cache is bounded: at the cap one entry
    takes 128 KiB per carrier element.
    """
    run = n**j
    period = run * n
    repeat = ((1 << count) - 1) // ((1 << period) - 1)
    return tuple((((1 << run) - 1) << (v * run)) * repeat for v in range(n))


def _apply(table: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
    slots = [0] * len(x)
    for v, bits in enumerate(x):
        if bits:
            slots[table[v]] |= bits
    return tuple(slots)


def _combine(table: tuple[tuple[int, ...], ...], x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    slots = [0] * len(x)
    right = [(w, bits) for w, bits in enumerate(y) if bits]
    for v, left in enumerate(x):
        if left:
            row = table[v]
            for w, bits in right:
                slots[row[w]] |= left & bits
    return tuple(slots)


class _Values:
    """Bit-sliced values in one algebra (a matrix's ``_ops``) over every
    valuation of ``atom_tuple``, shared by all matrices with that algebra.

    These are the slot tables, for an algebra with no ``_codes``: a value
    is a tuple with one int per carrier index, and bit i of slot v is set
    when the formula takes element v under valuation i. ``_Planes`` holds
    the values of an algebra with ``_codes``. Each distinct subformula is
    evaluated once, by ``syntax.fold``. ``of`` evaluates a query's items:
    formulas, or sequents read as their ``tau``.
    """

    def __init__(self, m: Matrix, atom_tuple: tuple[str, ...], sequents: bool):
        self.ops = m._ops
        n = len(m.carrier)
        self.count = n ** len(atom_tuple)
        self.full = (1 << self.count) - 1
        self.sequents = sequents
        # the values of the query's items and of their subformulas, by id,
        # the leaves' set up front: the query keeps them all alive (its
        # atoms are atom_tuple), and ids skip hashing a sequent
        self.memo = {id(TOP): self.constant(self.ops[3]), id(BOT): self.constant(self.ops[4])}
        self.memo.update((id(Atom(a)), self.atom(_atom_slices(n, j, self.count))) for j, a in enumerate(atom_tuple))

    def of(self, item):
        """The value of a query item: a formula, or a sequent read as its tau."""
        out = self.memo.get(id(item))
        if out is None:
            out = self.memo[id(item)] = self.sequent(item) if self.sequents else self.formula(item)
        return out

    def designation(self, m: Matrix, item) -> int:
        """The valuations under which m designates the item."""
        slots = self.of(item)
        mask = 0
        for v in m._designated_at:
            mask |= slots[v]
        return mask

    def atom(self, slices: tuple[int, ...]) -> tuple[int, ...]:
        return slices

    def constant(self, v: int) -> tuple[int, ...]:
        slots = [0] * len(self.ops[2])
        slots[v] = self.full
        return tuple(slots)

    def formula(self, f: Formula) -> tuple[int, ...]:
        meet, join, neg = self.ops[:3]

        def step(g: Formula, kids: tuple) -> tuple[int, ...]:
            if not kids:
                raise TypeError(f"not a formula: {g!r}")
            return _apply(neg, *kids) if isinstance(g, Neg) else _combine(meet if isinstance(g, And) else join, *kids)

        return fold(f, operands, step, id, self.memo)

    def sequent(self, s: Sequent) -> tuple[int, ...]:
        """The value of ``tau(s)``, from the values of s's members: the
        negated right-nested meet of the left side (T if empty) joined with
        the right-nested join of the right side (F if empty)."""
        meet, join, neg, top, bot = self.ops
        sides = []
        for members, table, unit in ((s.left, meet, top), (s.right, join, bot)):
            if not members:
                sides.append(self.constant(unit))
                continue
            acc = self.formula(members[-1])
            for f in reversed(members[:-1]):
                acc = _combine(table, self.formula(f), acc)
            sides.append(acc)
        return _combine(join, _apply(neg, sides[0]), sides[1])


def _told_step(g: Formula, kids: tuple) -> tuple[int, int]:
    kind = type(g)
    if kind is Neg:
        return kids[0][::-1]
    if kind is not And and kind is not Or:
        raise TypeError(f"not a formula: {g!r}")
    (t1, f1), (t2, f2) = kids
    return (t1 & t2, f1 | f2) if kind is And else (t1 | t2, f1 & f2)


class _Planes(_Values):
    """``_Values`` in an algebra with ``_codes``: a value is a pair (T, F)
    of planes, bit i of T set when the formula is told true under valuation
    i, of F when it is told false. A meet is ``(T & T', F | F')``, a join
    ``(T | T', F & F')``, and neg swaps the planes."""

    def __init__(self, m: Matrix, atom_tuple: tuple[str, ...], sequents: bool):
        self.codes = m._codes
        super().__init__(m, atom_tuple, sequents)

    def designation(self, m: Matrix, item) -> int:
        """T when m designates the values told true, else the union of the
        valuations taking each designated pair."""
        told_true, told_false = self.of(item)
        if m._told is None:
            return told_true
        mask = 0
        for t, f in m._told:
            mask |= (told_true if t else ~told_true) & (told_false if f else ~told_false)
        return mask & self.full

    def atom(self, slices: tuple[int, ...]) -> tuple[int, int]:
        told_true = told_false = 0
        for (t, f), bits in zip(self.codes, slices):
            if t:
                told_true |= bits
            if f:
                told_false |= bits
        return told_true, told_false

    def constant(self, v: int) -> tuple[int, int]:
        t, f = self.codes[v]
        return t * self.full, f * self.full

    def formula(self, f: Formula) -> tuple[int, int]:
        return fold(f, operands, _told_step, id, self.memo)

    def sequent(self, s: Sequent) -> tuple[int, int]:
        """``tau(s)`` is told true where a left member is told false or a
        right member told true, and told false where every left member is
        told true and every right member told false."""
        told_true, told_false = 0, self.full
        for side, flip in ((s.left, 1), (s.right, 0)):
            for f in side:
                planes = self.memo.get(id(f)) or self.formula(f)
                told_true |= planes[flip]
                told_false &= planes[1 - flip]
        return told_true, told_false


def _factor_masks(
    m: Matrix,
    values_of: Callable[[Matrix], _Values],
    premises: tuple,
    conclusion,
) -> Optional[list[tuple[int, int]]]:
    """For each factor of m (m itself unless it is a product), the
    valuations designating every premise and those designating the
    conclusion (none for a None conclusion), as bits of one bit-sliced
    enumeration per factor. None once some factor designates the premises
    under no valuation: then no valuation of m does, and the conclusion is
    not evaluated.

    A valuation of a product is one valuation per factor, and it designates
    a formula iff each factor's does. So the premises entail the conclusion
    in m unless every factor has premise bits and some factor has premise
    bits outside its conclusion bits; a countermodel takes one valuation
    from each factor's premise bits, from outside the conclusion bits in
    one of them.
    """
    factors = m.factors or (m,)
    prems = []
    for fac in factors:
        values = values_of(fac)
        mask = values.full
        for p in premises:
            mask &= values.designation(fac, p)
            if not mask:
                return None
        prems.append(mask)
    if conclusion is None:
        return [(mask, 0) for mask in prems]
    return [(mask, values_of(fac).designation(fac, conclusion)) for fac, mask in zip(factors, prems)]


def _decide(spec: LogicSpec, premises: tuple, conclusion, sequents: bool) -> bool:
    names: set[str] = set()
    for x in premises if conclusion is None else premises + (conclusion,):
        names |= atoms_of(x)
    atom_tuple = tuple(sorted(names))
    for m in spec.matrices:
        for fac in m.factors or (m,):
            count = len(fac.carrier) ** len(atom_tuple)
            if count > MAX_VALUATIONS:
                raise ResourceCapError(
                    f"valuation cap {MAX_VALUATIONS} exceeded: {fac.name} over "
                    f"{len(atom_tuple)} atoms has {count} valuations"
                )
    algebras: dict[tuple, _Values] = {}

    def values_of(fac: Matrix) -> _Values:
        values = algebras.get(fac._ops)
        if values is None:
            values = algebras[fac._ops] = (_Planes if fac._codes else _Values)(fac, atom_tuple, sequents)
        return values

    for m in spec.matrices:
        masks = _factor_masks(m, values_of, premises, conclusion)
        if masks is not None and any(p & ~c for p, c in masks):
            return False
    return True


def holds(
    spec: LogicSpec,
    premises: Iterable[Formula],
    conclusion: Optional[Formula] = None,
) -> bool:
    """Matrix consequence by exhaustive, bit-sliced valuation enumeration:
    as told-true/told-false planes (``_Planes``) in an algebra that embeds
    in the four Belnap-Dunn values, as every built-in one does, and through
    the operation tables (``_Values``) in any other.

    A ``None`` conclusion asks whether the premises form an antitheorem.
    For intersections the verdict is the conjunction over all matrices; a
    product is decided through its factors (``_factor_masks``). Raises
    ResourceCapError when a matrix, or a factor of a product, has more than
    ``MAX_VALUATIONS`` valuations of the query's atoms.
    """
    return _decide(spec, tuple(premises), conclusion, sequents=False)


def holds_sequent(spec: LogicSpec, premises: Iterable[Sequent], conclusion: Sequent) -> bool:
    """Sequent-level consequence: ``holds`` on the ``tau`` of each sequent,
    evaluated from the sequents' members without building ``tau``."""
    return _decide(spec, tuple(premises), conclusion, sequents=True)


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
