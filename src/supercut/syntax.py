"""Formulas, sequents, substitutions and the sequent/formula transformers.

Everything here is immutable and hashable; values are shared freely.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence, TypeVar, Union
from weakref import WeakValueDictionary


class SupercutError(Exception):
    """Base class for errors raised by this package."""


class ParseError(SupercutError):
    """Syntax error with position and expected-token information."""

    def __init__(self, message: str, position: int, expected: str):
        super().__init__(f"{message} at position {position} (expected {expected})")
        self.message = message
        self.position = position
        self.expected = expected


class ResourceCapError(SupercutError):
    """Raised when a resource cap is exceeded: saturation facts or oracle valuations."""


class Value:
    """Base of the package's immutable value classes.

    ``_fields`` names what a value is built from, in constructor order: the
    constructor sets them from its arguments, its repr lists them, and
    ``_args`` reads them back for the constructor. Equality and the hash go
    by ``_compared``, all the fields unless a class declares fewer, which
    are read by one C-level getter. Assigning or deleting an attribute
    raises AttributeError, so a class's own ``__init__`` sets what it adds
    through ``Value.__init__`` or the slots' descriptors.

    A pickle or deep copy holds the value as ``flatten`` gives it, and
    ``unflatten`` rebuilds it, so neither recurses on a deep value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields
        if cls._compared:
            cls._compared_values = attrgetter(*cls._compared)

    def __init__(self, *args: object) -> None:
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} arguments, not {len(args)}")
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._compared_values
        return self is other or get(self) == get(other)

    def __hash__(self) -> int:
        return hash(self._compared_values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _args(self) -> tuple:
        """The constructor's arguments that rebuild the value."""
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return unflatten, (flatten(self),)

    def __repr__(self) -> str:
        return value_repr(self)


T = TypeVar("T")


def fold(root: object, parts: Callable[[Any], Sequence], step: Callable[[Any, tuple], T],
         key: Callable[[Any], Hashable] = id, done: Optional[dict] = None) -> T:
    """Post-order fold over the DAG under root, from an explicit stack:
    ``step(node, results)`` gets the results of ``parts(node)`` and returns
    node's. Each distinct node, as ``key`` tells them apart, is stepped
    once, its parts left to right before it. ``done`` maps the keys of the
    nodes stepped so far to their results; a fold skips those nodes and
    adds the ones it steps. Returns root's result."""
    done = {} if done is None else done
    todo: list = [(root, None)]
    while todo:
        node, kids = todo.pop()
        if kids is not None:
            done[key(node)] = step(node, tuple([done[key(kid)] for kid in kids]))
        elif key(node) not in done:
            kids = parts(node)
            if kids:
                todo.append((node, kids))
                for kid in reversed(kids):
                    todo.append((kid, None))
            else:
                done[key(node)] = step(node, ())
    return done[key(root)]


def flatten(root: Value) -> list[tuple]:
    """root as a post-order table, by ``fold``: each entry is ``(None,
    leaf)``, or ``(type, indices)`` for a value or tuple built from the
    entries at those indices. An object met twice has one entry, so parts
    shared within root stay shared; values pickled apart are copied apart.
    A leaf is anything else, and pickles on its own; every object indexed
    is a stored field, kept alive by root."""
    table: list[tuple] = []

    def step(x: object, indices: tuple[int, ...]) -> int:
        table.append((type(x), indices) if isinstance(x, Value) or type(x) is tuple else (None, x))
        return len(table) - 1

    fold(root, lambda x: x._args() if isinstance(x, Value) else x if type(x) is tuple else (), step)
    return table


def unflatten(table: list[tuple]) -> Value:
    """The value ``flatten`` made the table from, each value rebuilt through
    its constructor."""
    built: list = []
    for kind, arg in table:
        if kind is None:
            built.append(arg)
        else:
            args = [built[i] for i in arg]
            built.append(tuple(args) if kind is tuple else kind(*args))
    return built[-1]


def value_repr(x: Value) -> str:
    """``Type(field=value, ...)`` over x's ``_fields``, built from an
    explicit stack: a nested Value, alone or in a tuple, is written the same
    way, however deep the nesting."""
    out: list[str] = []
    todo: list = [x]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        pieces: list = [type(x).__qualname__ + "("]
        for i, name in enumerate(x._fields):
            pieces.append(", " * (i > 0) + name + "=")
            value = getattr(x, name)
            if isinstance(value, Value):
                pieces.append(value)
            elif isinstance(value, tuple) and value and all(isinstance(v, Value) for v in value):
                pieces.append("(")
                for j, v in enumerate(value):
                    pieces.extend((", ", v) if j else (v,))
                pieces.append(",)" if len(value) == 1 else ")")
            else:
                pieces.append(repr(value))
        pieces.append(")")
        todo.extend(reversed(pieces))
    return "".join(out)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula(Value):
    """Base class of formula nodes, hash-consed: a constructor returns the
    one live node for its arguments, so equal formulas are one object, and
    equality and the hash are identity's.

    Each node stores its rendering when it is built, from its children's,
    so it is not recomputed per use and does not recurse. The rendering is
    not in ``_fields``, so it stays out of ``repr`` and out of pickles,
    which rebuild the node through its constructor: the live node.
    """

    __slots__ = ("_key", "__weakref__")
    # precedence of the node's rendering: 0 = or-level, 1 = and-level,
    # 2 = neg/atom-level; an operand rendered below the level its position
    # asks for is parenthesised
    _prec = 2
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__


# The live nodes, one per distinct formula: an atom's by its name, a
# constant's by its class, a compound node's by its class and its
# children's ids. A node holds its children, so the ids in its key stay
# theirs while it lives; the table holds the nodes weakly, and a node
# dropped everywhere else leaves it.
_NODES: WeakValueDictionary = WeakValueDictionary()

# Longest rendering stored on a compound node. A parent's rendering contains
# its children's, so storing every one would take memory quadratic in the
# depth of a chain; past the cap, render() builds the text on each call.
KEY_CAP = 1024

# Each slot is set through its own descriptor: a Value refuses plain
# assignment, and object.__setattr__ looks the slot up on each call.
_set_key = Formula._key.__set__


def _operand(g: Formula, prec: int) -> str | None:
    """g's stored rendering in a position asking for level ``prec``."""
    key = g._key
    return key if key is None or g._prec >= prec else "(" + key + ")"


def _joined(*parts: str | None) -> str | None:
    """The rendering made of ``parts``; None when a part is not stored or
    the whole is past ``KEY_CAP``."""
    if None in parts:
        return None
    key = "".join(parts)
    return key if len(key) <= KEY_CAP else None


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> Atom:
        node = _NODES.get(name)
        if node is None:
            node = object.__new__(cls)
            _set_name(node, name)
            _set_key(node, name)
            _NODES[name] = node
        return node


_set_name = Atom.name.__set__


def _constant(cls: type, text: str) -> Formula:
    node = _NODES.get(cls)
    if node is None:
        node = object.__new__(cls)
        _set_key(node, text)
        _NODES[cls] = node
    return node


class Top(Formula):
    __slots__ = ()

    def __new__(cls) -> Top:
        return _constant(cls, "T")


class Bot(Formula):
    __slots__ = ()

    def __new__(cls) -> Bot:
        return _constant(cls, "F")


class Neg(Formula):
    __slots__ = _fields = ("arg",)

    def __new__(cls, arg: Formula) -> Neg:
        key = (cls, id(arg))
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            _set_arg(node, arg)
            _set_key(node, _joined("~", _operand(arg, 2)))
            _NODES[key] = node
        return node

    def _layout(self) -> tuple:
        """The rendering as literal text and (operand, level asked of it)."""
        return ("~", (self.arg, 2))


_set_arg = Neg.arg.__set__


class _Binary(Formula):
    """A binary connective: its text ``_op`` between operands asked for
    the levels ``_operand_prec``."""

    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> _Binary:
        key = (cls, id(left), id(right))
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            _set_left(node, left)
            _set_right(node, right)
            lp, rp = cls._operand_prec
            _set_key(node, _joined(_operand(left, lp), cls._op, _operand(right, rp)))
            _NODES[key] = node
        return node

    def _layout(self) -> tuple:
        lp, rp = self._operand_prec
        return ((self.left, lp), self._op, (self.right, rp))


_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


class And(_Binary):
    __slots__ = ()
    _prec = 1
    _op = " & "
    _operand_prec = (1, 2)


class Or(_Binary):
    __slots__ = ()
    _prec = 0
    _op = " | "
    _operand_prec = (0, 1)


TOP = Top()
BOT = Bot()


def render(f: Formula) -> str:
    """Render a formula with minimal parentheses.

    Precedence is ~ > & > | with & and | left-associative, so
    ``parse_formula(render(f)) == f`` for every formula built from
    parser-accepted atom names. A rendering the node does not store (past
    ``KEY_CAP``) is built from an explicit stack of pieces.
    """
    if f._key is not None:
        return f._key
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            out.append(piece)
            continue
        g, prec = piece
        if g._key is not None:
            out.append(_operand(g, prec))
            continue
        wrap = g._prec < prec
        if wrap:
            todo.append(")")
        todo.extend(reversed(g._layout()))
        if wrap:
            todo.append("(")
    return "".join(out)


# one token after optional whitespace: an atom (group 1), or else one
# character, empty at the end of the text (group 2)
_TOKEN_RE = re.compile(r"\s*(?:([a-z][A-Za-z0-9_]*)|(.?))")


def parse_formula(text: str) -> Formula:
    """Parse the ASCII formula grammar: atoms, T, F, ~, &, | and parentheses.

    An operator-precedence parse over explicit stacks, so nesting costs no
    recursion: ``ops`` holds the pending ``~``, ``(``, ``&`` and ``|``,
    innermost last, and ``args`` the left operands of the pending ``&`` and
    ``|``. An error is reported where the recursive-descent reading of the
    grammar would: at the first token no rule can take.
    """
    ops: list[str] = []
    args: list[Formula] = []
    match = _TOKEN_RE.match
    pos = 0
    while True:
        # an operand: negations and opening parentheses, then a leaf
        m = match(text, pos)
        pos = m.end()
        atom, tok = m.groups()
        if atom is not None:
            f: Formula = Atom(atom)
        elif tok == "~" or tok == "(":
            ops.append(tok)
            continue
        elif tok == "T":
            f = TOP
        elif tok == "F":
            f = BOT
        else:
            raise ParseError("unexpected input", m.start(2), "atom, 'T', 'F', '~' or '('")
        # then what follows it: ~ binds tighter than &, & than |, and both
        # group to the left
        while True:
            while ops and ops[-1] == "~":
                ops.pop()
                f = Neg(f)
            m = match(text, pos)
            tok = m.group(2)
            # & closes the pending &; anything else closes every pending &
            # and | back to the innermost open parenthesis
            closes = "&" if tok == "&" else "&|"
            while ops and ops[-1] in closes:
                f = (And if ops.pop() == "&" else Or)(args.pop(), f)
            if tok == "&" or tok == "|":
                ops.append(tok)
                args.append(f)
                pos = m.end()
                break
            # only an open parenthesis can be left on ops
            if tok == ")" and ops:
                ops.pop()
                pos = m.end()
                continue
            if tok == "" and not ops:
                return f
            if ops:
                raise ParseError("unexpected input", m.start(m.lastindex), "')'")
            raise ParseError("trailing input", m.start(m.lastindex), "end of input")


# Canonical total-order key for formulas: the rendered form.
formula_key = render


def atoms_of(x: Union[Formula, "Sequent"]) -> frozenset[str]:
    """Set of atom names occurring in a formula or sequent."""
    if isinstance(x, Sequent):
        todo = list(x.left + x.right)
    elif isinstance(x, Formula):
        todo = [x]
    else:
        raise TypeError(f"not a formula or sequent: {x!r}")
    out: set[str] = set()
    while todo:
        g = todo.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, Neg):
            todo.append(g.arg)
        elif isinstance(g, (And, Or)):
            todo.append(g.left)
            todo.append(g.right)
    return frozenset(out)


def subformulas(f: Formula) -> frozenset[Formula]:
    """Reflexive-transitive subterm closure of a formula."""
    done: dict[Formula, None] = {}
    fold(f, operands, lambda g, _: None, lambda g: g, done)
    return frozenset(done)


def operands(g: Formula) -> tuple[Formula, ...]:
    """g's children, left to right."""
    return (g.arg,) if isinstance(g, Neg) else (g.left, g.right) if isinstance(g, _Binary) else ()


# ---------------------------------------------------------------------------
# Polarity
# ---------------------------------------------------------------------------


class PolarityReport(Value):
    """Per-atom (occurs-positively, occurs-negatively) flags."""

    __slots__ = _fields = ("flags",)

    def positive(self, name: str) -> bool:
        return any(a == name and p for a, p, _ in self.flags)

    def negative(self, name: str) -> bool:
        return any(a == name and n for a, _, n in self.flags)

    def pair(self, name: str) -> tuple[bool, bool]:
        return (self.positive(name), self.negative(name))

    def atoms(self) -> frozenset[str]:
        return frozenset(a for a, _, _ in self.flags)


def _signed_atoms(f: Formula) -> Iterator[tuple[Atom, bool]]:
    """Each atom occurrence of f in leaf order, with True when it sits
    under an even number of negations; an explicit stack, so a deep formula
    does not recurse."""
    todo = [(f, True)]
    while todo:
        g, sign = todo.pop()
        if isinstance(g, Atom):
            yield g, sign
        elif isinstance(g, Neg):
            todo.append((g.arg, not sign))
        elif isinstance(g, _Binary):
            todo.append((g.right, sign))
            todo.append((g.left, sign))


def polarity(f: Formula) -> PolarityReport:
    """Positive/negative occurrence flags per atom; negation swaps polarity."""
    acc: dict[str, list[bool]] = {}
    for g, sign in _signed_atoms(f):
        acc.setdefault(g.name, [False, False])[0 if sign else 1] = True
    flags = tuple(sorted((a, p, n) for a, (p, n) in acc.items()))
    return PolarityReport(flags)


def is_balanced(f: Formula) -> bool:
    """True when each atom occurs only positively or only negatively."""
    rep = polarity(f)
    return all(not (rep.positive(a) and rep.negative(a)) for a in rep.atoms())


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------


_stored_key = attrgetter("_key")


def multiset_minus(forms: Sequence[Formula], taken: Sequence[Formula]) -> Optional[Sequence[Formula]]:
    """forms less taken as multisets, in forms' order; None when taken is
    not part of forms. Linear in the width of forms: up to seven members of
    taken go by ``list.remove``, which is fastest for so few, and more are
    counted in one pass."""
    if len(taken) < 8:
        rest = list(forms)
        try:
            for f in taken:
                rest.remove(f)
        except ValueError:
            return None
        return rest
    count: dict[Formula, int] = {}
    for f in taken:
        count[f] = count.get(f, 0) + 1
    rest = []
    for f in forms:
        if count.get(f):
            count[f] -= 1
        else:
            rest.append(f)
    return rest if len(rest) + len(taken) == len(forms) else None


def _sorted_side(forms: Iterable[Formula]) -> tuple[Formula, ...]:
    forms = tuple(forms)
    if len(forms) < 2:
        return forms
    try:
        return tuple(sorted(forms, key=_stored_key))
    except TypeError:  # a rendering not stored (None) does not compare with a string
        return tuple(sorted(forms, key=render))


class Sequent(Value):
    """A pair of finite multisets of formulas, stored in canonical order.

    Multiset equality (order-insensitive, multiplicity-sensitive) coincides
    with structural equality because both sides are sorted at construction.
    """

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Iterable[Formula] = (), right: Iterable[Formula] = ()):
        _set_lhs(self, _sorted_side(left))
        _set_rhs(self, _sorted_side(right))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Sequent:
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def is_atomic(self) -> bool:
        """All member formulas are atoms; constants disqualify a sequent."""
        return all(isinstance(f, Atom) for f in self.left + self.right)

    def is_empty(self) -> bool:
        return not self.left and not self.right

    def add(self, left: Iterable[Formula] = (), right: Iterable[Formula] = ()) -> "Sequent":
        """The sequent with the given formulas added; a side that gains none
        is already sorted and is kept as it is."""
        left, right = tuple(left), tuple(right)
        out = object.__new__(Sequent)
        _set_lhs(out, _sorted_side(self.left + left) if left else self.left)
        _set_rhs(out, _sorted_side(self.right + right) if right else self.right)
        return out

    def remove_one(self, f: Formula, side: str) -> "Sequent":
        """Remove one occurrence of f from the given side ('left'/'right')."""
        forms = list(getattr(self, side))
        forms.remove(f)
        # what is left of a sorted side is sorted
        out = object.__new__(Sequent)
        _set_lhs(out, tuple(forms) if side == "left" else self.left)
        _set_rhs(out, tuple(forms) if side == "right" else self.right)
        return out

    def support(self) -> "Sequent":
        """The underlying set-sequent (each member once)."""
        return Sequent(set(self.left), set(self.right))

    def render(self) -> str:
        lhs = ", ".join(render(f) for f in self.left)
        rhs = ", ".join(render(f) for f in self.right)
        if lhs and rhs:
            return f"{lhs} |- {rhs}"
        if lhs:
            return f"{lhs} |-"
        if rhs:
            return f"|- {rhs}"
        return "|-"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


_set_lhs = Sequent.left.__set__
_set_rhs = Sequent.right.__set__


def sequent_key(s: Sequent) -> str:
    return s.render()


def parse_sequent(text: str) -> Sequent:
    """Parse 'p, q |- r, s'; either side may be empty."""
    return _parse_sequent(text, {})


def _parse_sequent(text: str, parsed: dict[str, Formula]) -> Sequent:
    """parse_sequent, taking the formula of a text already in ``parsed``
    from there and adding each formula it parses, keyed by its text without
    surrounding whitespace, which the parser skips."""
    parts = text.split("|-")
    if len(parts) != 2:
        # the end of a text without '|-', or the second '|-'
        position = len(text) if len(parts) == 1 else len(parts[0]) + 2 + len(parts[1])
        raise ParseError("sequent must contain exactly one '|-'", position, "'|-'")
    return Sequent(_parse_side(parts[0], 0, parsed), _parse_side(parts[1], len(parts[0]) + 2, parsed))


def _parse_side(text: str, offset: int, parsed: dict[str, Formula]) -> list[Formula]:
    """The formulas of a side that starts at ``offset`` in the sequent's
    text, where a parse error's position points."""
    if not text.strip():
        return []
    out = []
    chunks = text.split(",")
    for chunk in chunks:
        key = chunk.strip()
        f = parsed.get(key)
        if f is None:
            try:
                f = parsed[key] = parse_formula(chunk)
            except ParseError as e:
                start = offset + len(",".join(chunks[:len(out)] + [""]))  # where chunk starts
                raise ParseError(e.message, start + e.position, e.expected) from None
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


class Substitution(Value):
    """Finite-support map from atom names to formulas; identity elsewhere."""

    __slots__ = _fields = ("mapping",)

    def __init__(self, mapping: dict[str, Formula] | Iterable[tuple[str, Formula]] = ()):
        super().__init__(tuple(sorted(dict(mapping).items())))

    def support(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.mapping)

    def __call__(self, name: str) -> Formula:
        for a, f in self.mapping:
            if a == name:
                return f
        return Atom(name)


def apply_subst(s: Substitution, x: Union[Formula, Sequent]) -> Union[Formula, Sequent]:
    """Homomorphic replacement of atoms in a formula or sequent."""

    def image(a: Atom) -> Formula:
        return s(a.name)

    if isinstance(x, Sequent):
        return Sequent((map_atoms(f, image) for f in x.left), (map_atoms(f, image) for f in x.right))
    if not isinstance(x, Formula):
        raise TypeError(f"not a formula or sequent: {x!r}")
    return map_atoms(x, image)


def map_atoms(f: Formula, image: Callable[[Atom], Formula]) -> Formula:
    """f with each atom occurrence replaced by its image, asked for in leaf
    order; constants stay. Built from an explicit stack, so a deep formula
    does not recurse."""
    built: list[Formula] = []
    todo: list[tuple[Formula, bool]] = [(f, False)]
    while todo:
        g, operands_built = todo.pop()
        if isinstance(g, Atom):
            built.append(image(g))
        elif isinstance(g, (Top, Bot)):
            built.append(g)
        elif not operands_built:
            todo.append((g, True))
            todo.extend([(g.arg, False)] if isinstance(g, Neg) else [(g.right, False), (g.left, False)])
        elif isinstance(g, Neg):
            built.append(Neg(built.pop()))
        else:
            right = built.pop()
            built.append(type(g)(built.pop(), right))
    return built[0]


def is_balanced_subst(s: Substitution, extra_atoms: Iterable[str] = ()) -> bool:
    names = set(s.support()) | set(extra_atoms)
    return all(is_balanced(s(a)) for a in names)


def is_non_conflicting(s: Substitution, extra_atoms: Iterable[str] = ()) -> bool:
    names = sorted(set(s.support()) | set(extra_atoms))
    seen: dict[str, str] = {}
    for a in names:
        for v in atoms_of(s(a)):
            if seen.setdefault(v, a) != a:
                return False
    return True


def is_atomic_subst(s: Substitution, extra_atoms: Iterable[str] = ()) -> bool:
    names = set(s.support()) | set(extra_atoms)
    return all(isinstance(s(a), Atom) for a in names)


class FreshNames:
    """Supply of atom names the parser never accepts (reserved '_' prefix)."""

    def __init__(self, prefix: str = "_v"):
        self._prefix = prefix
        self._n = 0

    def take(self) -> str:
        name = f"{self._prefix}{self._n}"
        self._n += 1
        return name


def decompose_substitution(
    s: Substitution, relevant_atoms: Iterable[str], fresh: FreshNames | None = None
) -> tuple[Substitution, Substitution]:
    """Split ``s`` as ``sa after bnc`` on the given atoms.

    ``bnc`` is balanced and non-conflicting (every atom occurrence of each
    image is replaced by a fresh atom private to that image and polarity);
    ``sa`` maps those fresh atoms back. The composition agrees with ``s``
    on ``relevant_atoms``.
    """
    fresh = fresh or FreshNames()
    bnc: dict[str, Formula] = {}
    sa: dict[str, Formula] = {}
    for a in sorted(set(relevant_atoms)):
        image = s(a)
        signs = (sign for _, sign in _signed_atoms(image))
        table: dict[tuple[str, bool], str] = {}

        def freshen(g: Atom) -> Formula:
            # map_atoms asks in leaf order, the order signs come in
            key = (g.name, next(signs))
            if key not in table:
                table[key] = fresh.take()
                sa[table[key]] = g
            return Atom(table[key])

        bnc[a] = map_atoms(image, freshen)
    return Substitution(bnc), Substitution(sa)


# ---------------------------------------------------------------------------
# tau / rho transformers
# ---------------------------------------------------------------------------


def big_and(forms: Iterable[Formula]) -> Formula:
    """Right-nested conjunction; empty conjunction is T."""
    items = list(forms)
    if not items:
        return TOP
    out = items[-1]
    for f in reversed(items[:-1]):
        out = And(f, out)
    return out


def big_or(forms: Iterable[Formula]) -> Formula:
    """Right-nested disjunction; empty disjunction is F."""
    items = list(forms)
    if not items:
        return BOT
    out = items[-1]
    for f in reversed(items[:-1]):
        out = Or(f, out)
    return out


def tau(s: Sequent) -> Formula:
    """Sequent-to-formula transformer: ~(/\\ left) \\/ (\\/ right)."""
    return Or(Neg(big_and(s.left)), big_or(s.right))


def rho(f: Formula) -> Sequent:
    """Formula-to-sequent transformer: the sequent with f alone on the right."""
    return Sequent((), (f,))


def set_to_formula(seqs: Iterable[Sequent]) -> Formula:
    """Conjunction of tau over a sequent set in canonical order; T if empty."""
    ordered = sorted(set(seqs), key=sequent_key)
    if not ordered:
        return TOP
    return big_and([tau(s) for s in ordered])
