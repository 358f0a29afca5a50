"""Formulas, sequents, substitutions and the sequent/formula transformers.

Everything here is immutable and hashable; values are shared freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union


class SupercutError(Exception):
    """Base class for errors raised by this package."""


class ParseError(SupercutError):
    """Syntax error with position and expected-token information."""

    def __init__(self, message: str, position: int, expected: str):
        super().__init__(f"{message} at position {position} (expected {expected})")
        self.position = position
        self.expected = expected


class ResourceCapError(SupercutError):
    """Raised when a resource cap is exceeded: saturation facts or oracle valuations."""


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class of formula nodes. Subclasses are frozen dataclasses."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Neg(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


TOP = Top()
BOT = Bot()

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


def render(f: Formula) -> str:
    """Render a formula with minimal parentheses.

    Precedence is ~ > & > | with & and | left-associative, so
    ``parse_formula(render(f)) == f`` for every formula built from
    parser-accepted atom names.
    """
    return _render(f, 0)


def _render(f: Formula, prec: int) -> str:
    # prec: 0 = or-level, 1 = and-level, 2 = neg/atom-level
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Neg):
        return "~" + _render(f.arg, 2)
    if isinstance(f, And):
        s = _render(f.left, 1) + " & " + _render(f.right, 2)
        return "(" + s + ")" if prec > 1 else s
    if isinstance(f, Or):
        s = _render(f.left, 0) + " | " + _render(f.right, 1)
        return "(" + s + ")" if prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError("unexpected input", self.pos, repr(ch))
        self.pos += 1


def parse_formula(text: str) -> Formula:
    """Parse the ASCII formula grammar: atoms, T, F, ~, &, | and parentheses."""
    toks = _Tokens(text)
    f = _parse_or(toks)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError("trailing input", toks.pos, "end of input")
    return f


def _parse_or(toks: _Tokens) -> Formula:
    f = _parse_and(toks)
    while toks.peek() == "|":
        toks.eat("|")
        f = Or(f, _parse_and(toks))
    return f


def _parse_and(toks: _Tokens) -> Formula:
    f = _parse_neg(toks)
    while toks.peek() == "&":
        toks.eat("&")
        f = And(f, _parse_neg(toks))
    return f


def _parse_neg(toks: _Tokens) -> Formula:
    c = toks.peek()
    if c == "~":
        toks.eat("~")
        return Neg(_parse_neg(toks))
    if c == "(":
        toks.eat("(")
        f = _parse_or(toks)
        toks.eat(")")
        return f
    if c == "T":
        toks.pos += 1
        return TOP
    if c == "F":
        toks.pos += 1
        return BOT
    m = _ATOM_RE.match(toks.text, toks.pos)
    if m is None:
        raise ParseError("unexpected input", toks.pos, "atom, 'T', 'F', '~' or '('")
    toks.pos = m.end()
    return Atom(m.group())


def formula_key(f: Formula) -> str:
    """Canonical total-order key for formulas (the rendered form)."""
    return render(f)


def atoms_of(x: Union[Formula, "Sequent"]) -> frozenset[str]:
    """Set of atom names occurring in a formula or sequent."""
    if isinstance(x, Sequent):
        out: set[str] = set()
        for f in x.left + x.right:
            out |= atoms_of(f)
        return frozenset(out)
    if isinstance(x, Atom):
        return frozenset((x.name,))
    if isinstance(x, (Top, Bot)):
        return frozenset()
    if isinstance(x, Neg):
        return atoms_of(x.arg)
    if isinstance(x, (And, Or)):
        return atoms_of(x.left) | atoms_of(x.right)
    raise TypeError(f"not a formula or sequent: {x!r}")


def subformulas(f: Formula) -> frozenset[Formula]:
    """Reflexive-transitive subterm closure of a formula."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, Neg):
            stack.append(g.arg)
        elif isinstance(g, (And, Or)):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Polarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolarityReport:
    """Per-atom (occurs-positively, occurs-negatively) flags."""

    flags: tuple[tuple[str, bool, bool], ...]

    def positive(self, name: str) -> bool:
        return any(a == name and p for a, p, _ in self.flags)

    def negative(self, name: str) -> bool:
        return any(a == name and n for a, _, n in self.flags)

    def pair(self, name: str) -> tuple[bool, bool]:
        return (self.positive(name), self.negative(name))

    def atoms(self) -> frozenset[str]:
        return frozenset(a for a, _, _ in self.flags)


def polarity(f: Formula) -> PolarityReport:
    """Positive/negative occurrence flags per atom; negation swaps polarity."""
    acc: dict[str, list[bool]] = {}

    def walk(g: Formula, sign: bool) -> None:
        if isinstance(g, Atom):
            entry = acc.setdefault(g.name, [False, False])
            entry[0 if sign else 1] = True
        elif isinstance(g, Neg):
            walk(g.arg, not sign)
        elif isinstance(g, (And, Or)):
            walk(g.left, sign)
            walk(g.right, sign)

    walk(f, True)
    flags = tuple(sorted((a, p, n) for a, (p, n) in acc.items()))
    return PolarityReport(flags)


def is_balanced(f: Formula) -> bool:
    """True when each atom occurs only positively or only negatively."""
    rep = polarity(f)
    return all(not (rep.positive(a) and rep.negative(a)) for a in rep.atoms())


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------


def _sorted_side(forms: Iterable[Formula]) -> tuple[Formula, ...]:
    return tuple(sorted(forms, key=formula_key))


@dataclass(frozen=True)
class Sequent:
    """A pair of finite multisets of formulas, stored in canonical order.

    Multiset equality (order-insensitive, multiplicity-sensitive) coincides
    with structural equality because both sides are sorted at construction.
    """

    left: tuple[Formula, ...]
    right: tuple[Formula, ...]

    def __init__(self, left: Iterable[Formula] = (), right: Iterable[Formula] = ()):
        object.__setattr__(self, "left", _sorted_side(left))
        object.__setattr__(self, "right", _sorted_side(right))

    def is_atomic(self) -> bool:
        """All member formulas are atoms; constants disqualify a sequent."""
        return all(isinstance(f, Atom) for f in self.left + self.right)

    def is_empty(self) -> bool:
        return not self.left and not self.right

    def add(self, left: Iterable[Formula] = (), right: Iterable[Formula] = ()) -> "Sequent":
        return Sequent(self.left + tuple(left), self.right + tuple(right))

    def remove_one(self, f: Formula, side: str) -> "Sequent":
        """Remove one occurrence of f from the given side ('left'/'right')."""
        forms = list(getattr(self, side))
        forms.remove(f)
        if side == "left":
            return Sequent(forms, self.right)
        return Sequent(self.left, forms)

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


def sequent_key(s: Sequent) -> str:
    return s.render()


def parse_sequent(text: str) -> Sequent:
    """Parse 'p, q |- r, s'; either side may be empty."""
    parts = text.split("|-")
    if len(parts) != 2:
        raise ParseError("sequent must contain exactly one '|-'", text.find("|-"), "'|-'")
    return Sequent(_parse_side(parts[0]), _parse_side(parts[1]))


def _parse_side(text: str) -> list[Formula]:
    text = text.strip()
    if not text:
        return []
    return [parse_formula(chunk) for chunk in text.split(",")]


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Substitution:
    """Finite-support map from atom names to formulas; identity elsewhere."""

    mapping: tuple[tuple[str, Formula], ...]

    def __init__(self, mapping: dict[str, Formula] | Iterable[tuple[str, Formula]] = ()):
        items = dict(mapping)
        object.__setattr__(self, "mapping", tuple(sorted(items.items())))

    def as_dict(self) -> dict[str, Formula]:
        return dict(self.mapping)

    def support(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.mapping)

    def __call__(self, name: str) -> Formula:
        for a, f in self.mapping:
            if a == name:
                return f
        return Atom(name)


def apply_subst(s: Substitution, x: Union[Formula, Sequent]) -> Union[Formula, Sequent]:
    """Homomorphic replacement of atoms in a formula or sequent."""
    if isinstance(x, Sequent):
        return Sequent(
            (apply_subst(s, f) for f in x.left),
            (apply_subst(s, f) for f in x.right),
        )
    if isinstance(x, Atom):
        return s(x.name)
    if isinstance(x, (Top, Bot)):
        return x
    if isinstance(x, Neg):
        return Neg(apply_subst(s, x.arg))
    if isinstance(x, And):
        return And(apply_subst(s, x.left), apply_subst(s, x.right))
    if isinstance(x, Or):
        return Or(apply_subst(s, x.left), apply_subst(s, x.right))
    raise TypeError(f"not a formula or sequent: {x!r}")


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

    def __iter__(self) -> Iterator[str]:  # pragma: no cover - convenience
        while True:
            yield self.take()


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

    def freshen(g: Formula, sign: bool, table: dict[tuple[str, bool], str]) -> Formula:
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
        if isinstance(g, And):
            return And(freshen(g.left, sign, table), freshen(g.right, sign, table))
        if isinstance(g, Or):
            return Or(freshen(g.left, sign, table), freshen(g.right, sign, table))
        raise TypeError(f"not a formula: {g!r}")

    for a in sorted(set(relevant_atoms)):
        table: dict[tuple[str, bool], str] = {}
        bnc[a] = freshen(s(a), True, table)
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
