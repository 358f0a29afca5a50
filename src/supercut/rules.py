"""Logical rule matching, structural rule schemas, At-sets and expansions."""

from __future__ import annotations

import heapq
import itertools
import re
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .syntax import (
    And,
    Atom,
    Bot,
    Formula,
    Neg,
    Or,
    ParseError,
    ResourceCapError,
    Sequent,
    Substitution,
    SupercutError,
    Top,
    Value,
    map_atoms,
    multiset_minus,
    parse_formula,
    render,
    sequent_key,
)

# ---------------------------------------------------------------------------
# Logical rules
# ---------------------------------------------------------------------------

# Every calculus shares one set of logical rules, all read off this table. It
# maps a connective and the side of its principal occurrence to the branches
# of the decomposition; a branch lists the (side, component attribute) pairs
# it adds. A missing key is a side the constant closes by axiom: top on the
# right, bottom on the left.
DECOMPOSITION: dict[tuple[type, str], tuple[tuple[tuple[str, str], ...], ...]] = {
    (And, "left"): ((("left", "left"), ("left", "right")),),
    (And, "right"): ((("right", "left"),), (("right", "right"),)),
    (Or, "left"): ((("left", "left"),), (("left", "right"),)),
    (Or, "right"): ((("right", "left"), ("right", "right")),),
    (Neg, "left"): ((("right", "arg"),),),
    (Neg, "right"): ((("left", "arg"),),),
    (Top, "left"): ((),),
    (Bot, "right"): ((),),
}
AXIOMS = {"right": "top-right", "left": "bot-left"}
AXIOM_RULES = frozenset(AXIOMS.values())


class Decomposition(Value):
    """One row of DECOMPOSITION with its introduction and elimination names."""

    __slots__ = _fields = ("connective", "side", "branches", "intro", "elim")

    def branch(self, s: Sequent, f: Formula, i: int) -> Sequent:
        """s with one occurrence of f taken off its side and branch i's components added."""
        return _extend(s.remove_one(f, self.side), f, self.branches[i])

    def split(self, s: Sequent, f: Formula) -> list[Sequent]:
        """Every branch of decomposing one occurrence of f in s."""
        rest = s.remove_one(f, self.side)
        return [_extend(rest, f, pairs) for pairs in self.branches]


def _extend(rest: Sequent, f: Formula, pairs: tuple[tuple[str, str], ...]) -> Sequent:
    if not pairs:
        return rest
    left: list[Formula] = []
    right: list[Formula] = []
    for side, attr in pairs:
        (left if side == "left" else right).append(getattr(f, attr))
    return rest.add(left, right)


def _row(connective: type, side: str, branches) -> Decomposition:
    name = f"{connective.__name__.lower()}-{side}"
    return Decomposition(connective, side, branches, f"{name}-intro", f"{name}-elim")


ROWS = {key: _row(*key, branches) for key, branches in DECOMPOSITION.items()}


class LogicalRule(NamedTuple):
    row: Decomposition
    intro: bool
    arity: int


LOGICAL = {r.intro: LogicalRule(r, True, len(r.branches)) for r in ROWS.values()}
LOGICAL.update({r.elim: LogicalRule(r, False, 1) for r in ROWS.values()})
INTRO_RULES = frozenset(r.intro for r in ROWS.values())
ELIM_RULES = frozenset(r.elim for r in ROWS.values())


class LogicalMatch(Value):
    __slots__ = _fields = ("rule", "principal")


def match_logical(rule: str, premises: Sequence[Sequent], conclusion: Sequent) -> Optional[LogicalMatch]:
    """Re-match a logical inference step; None when it is not an instance.

    The principal occurrence is drawn from the conclusion (introductions) or
    the premise (eliminations); an introduction takes its premises in either
    order.
    """
    lr = LOGICAL.get(rule)
    if lr is None or len(premises) != lr.arity:
        return None
    row = lr.row
    host = conclusion if lr.intro else premises[0]
    seen = set()
    for f in getattr(host, row.side):
        if not isinstance(f, row.connective) or f in seen:
            continue
        seen.add(f)
        ws = row.split(host, f)
        if lr.intro:
            if tuple(premises) in (tuple(ws), tuple(reversed(ws))):
                return LogicalMatch(rule, f)
        else:
            if conclusion in ws:
                return LogicalMatch(rule, f)
    return None


def axiom_side(s: Sequent) -> Optional[str]:
    """"right" for a top on the right, "left" for a bottom on the left, None
    when s is no axiom."""
    if any(isinstance(f, Top) for f in s.right):
        return "right"
    if any(isinstance(f, Bot) for f in s.left):
        return "left"
    return None


# ---------------------------------------------------------------------------
# Structural rule schemas
# ---------------------------------------------------------------------------

_SLOT_RE = re.compile(r"[A-Z][A-Za-z0-9_']*")
_SATOM_RE = re.compile(r"[a-z][A-Za-z0-9_']*")


class SequentSchema(Value):
    """One schematic sequent: schema-atom and context-slot names per side.

    Schema atoms instantiate to single formulas; slots instantiate to
    finite multisets. Slots are distinct per side.
    """

    __slots__ = _fields = ("atoms_left", "slots_left", "atoms_right", "slots_right")

    def __init__(self, atoms_left=(), slots_left=(), atoms_right=(), slots_right=()):
        super().__init__(tuple(sorted(atoms_left)), tuple(sorted(set(slots_left))), tuple(sorted(atoms_right)),
                         tuple(sorted(set(slots_right))))

    def atom_names(self) -> frozenset[str]:
        return frozenset(self.atoms_left) | frozenset(self.atoms_right)

    def slot_names(self) -> frozenset[str]:
        return frozenset(self.slots_left) | frozenset(self.slots_right)

    def instance(self, atom: Callable[[str], Formula], slot: Callable[[str], Sequent]) -> Sequent:
        """The sequent taking each schema atom a to atom(a) and each slot s to the members of slot(s)."""
        left, right = [atom(a) for a in self.atoms_left], [atom(a) for a in self.atoms_right]
        for s in self.slots_left + self.slots_right:
            members = slot(s)
            left += members.left
            right += members.right
        return Sequent(left, right)

    def render(self) -> str:
        lhs = ", ".join(list(self.atoms_left) + list(self.slots_left))
        rhs = ", ".join(list(self.slots_right) + list(self.atoms_right))
        if lhs and rhs:
            return f"{lhs} |- {rhs}"
        if lhs:
            return f"{lhs} |-"
        if rhs:
            return f"|- {rhs}"
        return "|-"


class StructuralRule(Value):
    """A structural rule; ``sources``, of an expansion, gives per premise
    the index of the base premise it expands, and takes no part in equality
    or the hash."""

    __slots__ = ("name", "premises", "conclusion", "sources", "_key")
    _fields = ("name", "premises", "conclusion", "sources")
    _compared = ("name", "premises", "conclusion")

    def __init__(self, name: str, premises: tuple[SequentSchema, ...], conclusion: SequentSchema,
                 sources: tuple[int, ...] = ()):
        super().__init__(name, premises, conclusion, sources)
        _set_key(self, None)

    def schema_atoms(self) -> tuple[str, ...]:
        names: set[str] = set(self.conclusion.atom_names())
        for p in self.premises:
            names |= p.atom_names()
        return tuple(sorted(names))

    def slot_names(self) -> tuple[str, ...]:
        names: set[str] = set(self.conclusion.slot_names())
        for p in self.premises:
            names |= p.slot_names()
        return tuple(sorted(names))

    def render(self) -> str:
        body = " ; ".join(p.render() for p in self.premises)
        return f"{body} => {self.conclusion.render()}" if body else f"=> {self.conclusion.render()}"

    def schema_key(self) -> tuple:
        """Identity of the rule up to its name and those of its schema atoms
        and slots: ``canonical_rule``, its slots renamed alike; stored once made."""
        if self._key is None:
            r = _rename_rule(canonical_rule(self), {}, _canonical_names(self, "slots", "S"))
            _set_key(self, (r.premises, r.conclusion))
        return self._key


_set_key = StructuralRule._key.__set__


def canonical_rule(rule: StructuralRule) -> StructuralRule:
    """Rename schema atoms to x0, x1, ... by ordered partition refinement.

    The atoms start as one cell in name order; each side, in render order
    (every premise's left then right, then the conclusion's), splits every
    cell by how often each atom occurs on that side, highest count first,
    which is a stable sort by the vector of counts. Atoms that end in one
    cell occur equally often on every side, so any order among them gives
    the same rule. With at most ten atoms, whose new names have equal
    width, the result is the renaming with the least rendering.
    """
    r = _rename_rule(rule, _canonical_names(rule, "atoms", "x"), {})
    return StructuralRule(r.render(), r.premises, r.conclusion)


def _canonical_names(rule: StructuralRule, kind: str, prefix: str) -> dict[str, str]:
    """The rule's schema atoms ("atoms") or slots ("slots") renamed prefix
    + 0, 1, ... in ``canonical_rule``'s order, which holds for slots too."""
    sides = [getattr(s, f"{kind}_{side}") for s in rule.premises + (rule.conclusion,) for side in ("left", "right")]
    order = sorted({a for side in sides for a in side}, key=lambda a: ([-side.count(a) for side in sides], a))
    return {a: f"{prefix}{i}" for i, a in enumerate(order)}


def _rename_rule(rule: StructuralRule, atoms: dict[str, str], slots: dict[str, str]) -> StructuralRule:
    def ren(schema: SequentSchema) -> SequentSchema:
        return SequentSchema(
            [atoms.get(a, a) for a in schema.atoms_left],
            [slots.get(s, s) for s in schema.slots_left],
            [atoms.get(a, a) for a in schema.atoms_right],
            [slots.get(s, s) for s in schema.slots_right],
        )

    return StructuralRule(rule.name, tuple(map(ren, rule.premises)), ren(rule.conclusion))


def parse_structural_rule(text: str, name: str | None = None) -> StructuralRule:
    """Parse 'G |- D, x ; x, G' |- D' => G, G' |- D, D''."""
    if "=>" not in text:
        raise ParseError("structural rule must contain '=>'", 0, "'=>'")
    prem_text, concl_text = text.split("=>", 1)
    prem_text = prem_text.strip()
    premises = tuple(
        _parse_schema(chunk) for chunk in prem_text.split(";") if chunk.strip()
    )
    conclusion = _parse_schema(concl_text)
    rule = StructuralRule(name or "", premises, conclusion)
    if name is None:
        rule = StructuralRule(rule.render(), premises, conclusion)
    return rule


def _parse_schema(text: str) -> SequentSchema:
    parts = text.split("|-")
    if len(parts) != 2:
        raise ParseError("schema must contain exactly one '|-'", 0, "'|-'")

    def split(side: str) -> tuple[list[str], list[str]]:
        atoms: list[str] = []
        slots: list[str] = []
        for chunk in side.split(","):
            tok = chunk.strip()
            if not tok:
                continue
            if _SLOT_RE.fullmatch(tok):
                if tok in slots:
                    raise ParseError(f"slot {tok} repeated on one side", 0, "distinct slots per side")
                slots.append(tok)
            elif _SATOM_RE.fullmatch(tok):
                atoms.append(tok)
            else:
                raise ParseError(f"bad schema token {tok!r}", 0, "slot or schema atom")
        return atoms, slots

    al, sl = split(parts[0])
    ar, sr = split(parts[1])
    return SequentSchema(al, sl, ar, sr)


# Common structural rules, members of every calculus.
WEAKENING_LEFT = parse_structural_rule("G |- D => x, G |- D", "weakening-left")
WEAKENING_RIGHT = parse_structural_rule("G |- D => G |- D, x", "weakening-right")
CONTRACTION_LEFT = parse_structural_rule("x, x, G |- D => x, G |- D", "contraction-left")
CONTRACTION_RIGHT = parse_structural_rule("G |- D, x, x => G |- D, x", "contraction-right")
COMMON_RULES = (WEAKENING_LEFT, WEAKENING_RIGHT, CONTRACTION_LEFT, CONTRACTION_RIGHT)

IDENTITY = parse_structural_rule("=> x |- x", "identity")
CUT = parse_structural_rule("G |- D, x ; x, G' |- D' => G, G' |- D, D'", "cut")
LIMITED_CUT_LEFT = parse_structural_rule("|- x ; x, G |- D => G |- D", "limited-cut-left")
LIMITED_CUT_RIGHT = parse_structural_rule("G |- D, x ; x |- => G |- D", "limited-cut-right")
EXPLOSIVE_CUT = parse_structural_rule("|- x ; x |- => |-", "explosive-cut")
CUTS = (CUT, LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT, EXPLOSIVE_CUT)

# The built-in rules by schema_key, so known whatever they and their parts are named
_BUILTIN = {r.schema_key(): r for r in COMMON_RULES + (IDENTITY,) + CUTS}


def builtin_of(rule: Optional[StructuralRule]) -> Optional[StructuralRule]:
    """The built-in rule that ``rule`` is up to renaming, or None, as for no rule."""
    return None if rule is None else _BUILTIN.get(rule.schema_key())


# side -> name of the common rule acting on one formula of that side
WEAKENING = {"left": WEAKENING_LEFT.name, "right": WEAKENING_RIGHT.name}
CONTRACTION = {"left": CONTRACTION_LEFT.name, "right": CONTRACTION_RIGHT.name}
COMMON_SIDE = {name: side for table in (WEAKENING, CONTRACTION) for side, name in table.items()}


class Calculus(Value):
    """A super-Belnap calculus: the fixed logical rules plus specific structural rules.

    Weakening and Contraction are implicit members of every calculus. A
    proof step names its rule, so a rule's name is no other step's name.
    """

    # no __slots__: the cached ``_table`` lives in the instance dict
    _fields = ("name", "specific")

    def __init__(self, name: str, specific: tuple[StructuralRule, ...]):
        names = [r.name for r in COMMON_RULES + specific] + ["premise", *LOGICAL, *AXIOM_RULES]
        if len(set(names)) < len(names):
            raise SupercutError(f"calculus {name}: the rule name {max(names, key=names.count)} is taken")
        super().__init__(name, specific)

    def __hash__(self) -> int:
        # Equal calculi share a name, so it alone is a valid hash; a lookup
        # keyed by an effective calculus then hashes none of its rules.
        return hash(self.name)

    @cached_property
    def _table(self) -> dict[str, Optional[StructuralRule]]:
        """The rules by name, with each expansion name resolved so far."""
        return {r.name: r for r in COMMON_RULES + self.specific}

    def rule(self, name: str) -> Optional[StructuralRule]:
        """The structural rule of this calculus named ``name``, or None. Past
        its own rules, ``base[images]`` names the expansion ``expansion``
        gives that name, where ``base`` is itself such a name or the
        bracket-free name of a rule here."""
        table = self._table
        if name in table:
            return table[name]
        head, *groups = name.split("[")
        found = table.get(head)
        for group in groups:
            if found is None:
                return None
            head += "[" + group
            if head not in table:
                table[head] = _expansion_named(found, group, head)
            found = table[head]
        return found

# Identity and the cuts by their own names: the calculus a pass reads step names in by default
BUILTIN_NAMES = Calculus("builtin-names", (IDENTITY,) + CUTS)
_CALCULI = {
    "gb": (),
    "glp": (IDENTITY,),
    "gk": (CUT,),
    "getl": (LIMITED_CUT_LEFT, LIMITED_CUT_RIGHT),
    "gecq": (EXPLOSIVE_CUT,),
    "gcl": (IDENTITY, CUT),
}

CALCULUS_NAMES = tuple(_CALCULI)


def builtin_calculus(name: str) -> Calculus:
    key = name.lower()
    if key not in _CALCULI:
        raise SupercutError(f"unknown calculus: {name}")
    return Calculus(key, _CALCULI[key])


# ---------------------------------------------------------------------------
# Structural matching
# ---------------------------------------------------------------------------


class StructuralMatch:
    __slots__ = ("rule", "atom_assignment", "slot_assignment")

    def __init__(self, rule: StructuralRule, atom_assignment: dict[str, Formula], slot_assignment: dict[str, tuple[Formula, ...]]):
        self.rule = rule
        self.atom_assignment = atom_assignment
        self.slot_assignment = slot_assignment


def match_structural(rule: StructuralRule, premises: Sequence[Sequent],
                     conclusion: Sequent) -> Optional[StructuralMatch]:
    """Find schema-atom and slot instantiations making the step an instance.

    Distinct schema atoms may collide on the same formula.

    The rule's ``_match_program`` runs depth first from an explicit stack,
    branching only on a side with several unbound names: over the first
    one's values in ``formula_key`` order, or over the splits among its
    slots. That finds the match a search in rule order finds first.
    """
    if len(premises) != len(rule.premises):
        return None
    givens = (*premises, conclusion)
    program = _match_program(rule)
    # iterators over the states to try: (program step, atom and slot assignments)
    stack: list[Iterator[tuple[int, dict, dict]]] = [iter([(0, {}, {})])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        i, atom_asn, slot_asn = state
        while i < len(program):
            g, side, atoms, slots, op, name, copies = program[i]
            images = [atom_asn[a] for a in atoms] + [f for s in slots for f in slot_asn[s]]
            rest = multiset_minus(getattr(givens[g], side), images)
            if rest is None:
                break
            if op == "branch":  # one state per value the sorted rest holds ``copies`` times
                stack.append(iter([(i + 1, {**atom_asn, name: f}, dict(slot_asn)) for j, f in enumerate(rest)
                                   if (j == 0 or rest[j - 1] != f) and rest[j:j + copies].count(f) == copies]))
                break
            if op == "split":
                stack.append(_split_states(i + 1, atom_asn, slot_asn, name, rest))
                break
            if op == "atom":
                if len(rest) != copies or rest.count(rest[0]) != copies:
                    break
                atom_asn[name] = rest[0]
            elif op == "slot":
                slot_asn[name] = tuple(rest)
            elif rest:
                break
            i += 1
        else:
            return StructuralMatch(rule, atom_asn, slot_asn)
    return None


@lru_cache(maxsize=4096)
def _match_program(rule: StructuralRule) -> tuple[tuple[int, str, tuple, tuple, str, object, int], ...]:
    """The steps ``match_structural`` runs for rule, one or more per schema
    side: (index among the premises and then the conclusion, side, the
    side's schema atoms bound before the step, one per copy, its slots bound
    before, operation, what it binds, that name's copies on the side). The
    operation is a "branch" on the side's first free atom, after which the
    side comes again, a "split" of the rest among several free slots, an
    "atom" or "slot" that takes the rest, or an "empty" rest. The next
    side is the first one left with at most one name that no side before it
    binds, else the first one left.
    """
    sides = [(i, side, getattr(s, "atoms_" + side), getattr(s, "slots_" + side))
             for i, s in enumerate(rule.premises + (rule.conclusion,)) for side in ("left", "right")]
    names = [set(atoms) | set(slots) for _, _, atoms, slots in sides]
    unbound = [len(n) for n in names]
    sides_of: dict[str, list[int]] = {}
    for j, n in enumerate(names):
        for name in n:
            sides_of.setdefault(name, []).append(j)
    ready = [j for j, n in enumerate(unbound) if n <= 1]  # a heap
    order: set[int] = set()
    program = []
    bound: set[str] = set()
    while len(order) < len(sides):
        j = heapq.heappop(ready) if ready else next(j for j in range(len(sides)) if j not in order)
        if j in order:
            continue
        order.add(j)
        for k in (k for name in names[j] for k in sides_of.pop(name, ())):
            unbound[k] -= 1
            if unbound[k] == 1:
                heapq.heappush(ready, k)
        g, side, atoms, slots = sides[j]
        free_atoms = [a for a in dict.fromkeys(atoms) if a not in bound]
        free_slots = tuple(s for s in slots if s not in bound)
        # branch on each free atom but the last, or on each while a free slot takes the rest
        ops = [("branch", a) for a in free_atoms[:len(free_atoms) - (not free_slots)]]
        ops.append(("split", free_slots) if len(free_slots) > 1 else ("slot", free_slots[0]) if free_slots
                   else ("atom", free_atoms[-1]) if free_atoms else ("empty", None))
        for op, name in ops:
            program.append((g, side, tuple(a for a in atoms if a in bound), tuple(s for s in slots if s in bound),
                            op, name, atoms.count(name)))
            bound.add(name)  # a branch's atom is bound in the side's next step
        bound.update(atoms, slots)
    return tuple(program)


def _split_states(i: int, atom_asn: dict, slot_asn: dict, slots: tuple[str, ...], pool: Sequence[Formula]):
    """The states at program step i that share the pool out among the slots,
    in lexicographic order of the choice of a slot per formula."""
    for choice in itertools.product(range(len(slots)), repeat=len(pool)):
        split = {s: tuple(f for f, c in zip(pool, choice) if c == k) for k, s in enumerate(slots)}
        yield i, dict(atom_asn), {**slot_asn, **split}


# ---------------------------------------------------------------------------
# At-sets
# ---------------------------------------------------------------------------


def decomposition_candidates(s: Sequent) -> list[tuple[str, Formula]]:
    """Each member of s that is no atom, with its side: the left side's
    first, each side in its order."""
    out = [("left", f) for f in s.left if not isinstance(f, Atom)]
    out += [("right", f) for f in s.right if not isinstance(f, Atom)]
    return out


def at_set(s: Sequent, chooser: Callable[[list[tuple[str, Formula]]], int] | None = None) -> frozenset[Sequent]:
    """All atomic sequents elimination-derivable from ``s``.

    A top on the right or a bottom on the left makes the result empty; the
    recursion is confluent, so the optional ``chooser`` (used by tests to
    randomize decomposition order) never changes the outcome.
    """
    if chooser is None:
        return _at_set_default(s)
    return _at_set_walk(s, chooser)


@lru_cache(maxsize=200000)
def _at_set_default(s: Sequent) -> frozenset[Sequent]:
    return _at_set_walk(s, lambda cands: 0)


def _at_set_walk(s: Sequent, chooser) -> frozenset[Sequent]:
    # an explicit stack, so deep formulas do not recurse, of branches: the
    # unsorted atoms per side, the (side, compound) candidates and the
    # (side, formula) pairs still to add; each member is sorted once
    out: set[Sequent] = set()
    stack = [([], [], [], [("left", f) for f in s.left] + [("right", f) for f in s.right])]
    while stack:
        left, right, cands, new = stack.pop()
        for side, f in new:
            if isinstance(f, Atom):
                (right if side == "right" else left).append(f)
            elif isinstance(f, Top if side == "right" else Bot):
                break  # an axiom: the branch has no members
            else:
                cands.append((side, f))
        else:
            if not cands:
                out.add(Sequent(left, right))
                continue
            side, f = cands.pop(chooser(cands))
            stack.extend((left[:], right[:], cands[:], [(to, getattr(f, attr)) for to, attr in pairs])
                         for pairs in ROWS[type(f), side].branches)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Rule classification
# ---------------------------------------------------------------------------


class RuleClassification(Value):
    __slots__ = _fields = ("cut_formulas", "side_formulas", "is_generalized_cut", "introduces_new_variables")


def classify(rule: StructuralRule) -> RuleClassification:
    """Cut/side formula analysis; context slots always count as side material."""
    names = rule.schema_atoms()
    in_concl = rule.conclusion.atom_names()
    in_prem: set[str] = set()
    on_left: set[str] = set()
    on_right: set[str] = set()
    for schema in list(rule.premises) + [rule.conclusion]:
        on_left |= set(schema.atoms_left)
        on_right |= set(schema.atoms_right)
    for schema in rule.premises:
        in_prem |= schema.atom_names()
    cut = frozenset(n for n in names if n in in_prem and n not in in_concl)
    side = frozenset(n for n in names if not (n in on_left and n in on_right))
    generalized = all(n in cut or n in side for n in names)
    new_vars = any(n not in in_prem for n in in_concl)
    return RuleClassification(cut, side, generalized, new_vars)


# ---------------------------------------------------------------------------
# Sigma expansion
# ---------------------------------------------------------------------------


def sigma_expand(rule: StructuralRule, sigma: Substitution) -> frozenset[StructuralRule]:
    """All sigma-expansions of a structural rule, one per member of the
    At-set of its conclusion's image; slots pass through unchanged. Each
    member of the premises' At-sets is an expanded premise, the first time
    it occurs, and ``sources`` gives the base premise it came from."""

    def members(schema: SequentSchema) -> list[SequentSchema]:
        image = schema.instance(sigma, lambda s: Sequent())
        return [SequentSchema([f.name for f in m.left], schema.slots_left, [f.name for f in m.right],
                              schema.slots_right) for m in sorted(at_set(image), key=sequent_key)]

    sources: dict[SequentSchema, int] = {}
    for i, p in enumerate(rule.premises):
        for schema in members(p):
            sources.setdefault(schema, i)
    premises = tuple(sources)
    out = []
    for concl in members(rule.conclusion):
        r = StructuralRule("", premises, concl, tuple(sources.values()))
        out.append(StructuralRule(r.render(), premises, concl, r.sources))
    return frozenset(out)


@lru_cache(maxsize=4096)
def expansion(base: StructuralRule, images: tuple[Formula, ...]) -> Optional[StructuralRule]:
    """The ``sigma_expand`` of ``base`` taking its schema atoms, in
    ``schema_atoms()`` order, to ``images``, when it is one rule; None when
    the count is wrong or the expansion has no single conclusion.

    Each atom occurrence of the images, in leaf order, is first renamed to
    the next of x0, x1, ..., the schema atoms of the expansion. It is named
    ``base[image, ...]`` over those atoms, or ``base`` when every image is
    an atom, so a name spells out one rule and ``Calculus.rule`` resolves it.
    """
    names = base.schema_atoms()
    if len(images) != len(names):
        return None
    leaves = itertools.count()
    linear = [map_atoms(f, lambda a: Atom(f"x{next(leaves)}")) for f in images]
    expanded = sigma_expand(base, Substitution(dict(zip(names, linear))))
    if len(expanded) != 1:
        return None
    (e,) = expanded
    name = base.name
    if not all(isinstance(f, Atom) for f in linear):
        name += "[" + ", ".join(map(render, linear)) + "]"
    return StructuralRule(name, e.premises, e.conclusion, e.sources)


def _expansion_named(base: StructuralRule, group: str, name: str) -> Optional[StructuralRule]:
    """The expansion of ``base`` by the images of ``group``, which closes
    the bracket that ``name`` ends in, when ``name`` is its name."""
    if not group.endswith("]"):
        return None
    try:
        images = tuple(parse_formula(text) for text in group[:-1].split(","))
    except ParseError:
        return None
    found = expansion(base, images)
    return found if found is not None and found.name == name else None


# ---------------------------------------------------------------------------
# Expansion pools, for custom calculi whose rules lack the expansion property
# ---------------------------------------------------------------------------


def _linear_shapes(depth: int) -> list[Formula]:
    """The formulas of connective-depth <= depth over ~, & and |, each leaf
    the atom x: ``expansion`` gives every leaf a fresh atom of its own."""
    levels: list[list[Formula]] = [[Atom("x")]]
    for _ in range(depth):
        prev = [s for lvl in levels for s in lvl]
        last = set(levels[-1])
        new: list[Formula] = [Neg(s) for s in levels[-1]]
        for a in prev:
            for b in prev:
                if a in last or b in last:
                    new.append(And(a, b))
                    new.append(Or(a, b))
        levels.append(new)
    return [s for lvl in levels for s in lvl]


def _shape_count(depth: int) -> int:
    """len(_linear_shapes(depth)) without building a shape; once it exceeds
    MAX_EXPANSION_IMAGES, some count above that cap."""
    level, total, below = 1, 1, 0  # shapes of the last level, of all levels, of all but the last
    for _ in range(depth):
        if total > MAX_EXPANSION_IMAGES:
            break
        level += 2 * (total * total - below * below)
        below, total = total, total + level
    return total


# Beyond this many expansions of one rule, ResourceCapError: the shape
# combinations of a custom calculus's expansion_pool, or the transversals
# of a gecq refutation step. Depth 2 admits up to two schema atoms
# (37**2 = 1,369 combinations: 0.55 s to pool a two-atom rule), depth 3
# (2,776 shapes) none. A gecq step over 1,024 transversals takes 0.14 s to
# build and 0.24 s to check, and each doubling at least doubles both
# (CPython 3.11).
MAX_EXPANSION_IMAGES = 2000


@lru_cache(maxsize=None)
def expansion_pool(rule: StructuralRule, depth_bound: int) -> frozenset[StructuralRule]:
    """The rule's expansions for saturation, one per renaming class: under
    each combination of linear shapes up to the depth bound for its schema
    atoms, named as ``expansion`` names it. Collision merging is left to
    the atom-assignment enumeration, so partitions are skipped.

    Raises ResourceCapError when the schema atoms have more than
    MAX_EXPANSION_IMAGES combinations of shapes to take.
    """
    schema_atoms = rule.schema_atoms()
    if _shape_count(depth_bound) ** len(schema_atoms) > MAX_EXPANSION_IMAGES:
        raise ResourceCapError(
            f"expansion cap {MAX_EXPANSION_IMAGES} exceeded: {rule.name} at depth bound "
            f"{depth_bound} has more combinations of shapes"
        )
    pool: dict[tuple, StructuralRule] = {}  # shapes such as x and ~~x expand alike
    for combo in itertools.product(_linear_shapes(depth_bound) if schema_atoms else (), repeat=len(schema_atoms)):
        e = expansion(rule, combo)
        if e is not None:
            pool.setdefault(e.schema_key(), e)
    return frozenset(pool.values())


# ---------------------------------------------------------------------------
# Hilbert-to-structural conversion
# ---------------------------------------------------------------------------


def hilbert_to_structural(
    premises: Iterable[Formula], conclusion: Optional[Formula]
) -> frozenset[StructuralRule]:
    """Turn a Hilbert rule into equivalent structural rules: the
    sigma-expansions of ``|- x0 ; |- x1 ; ... => |- y`` taking each x<i> to
    a premise and y to the conclusion, or of ``... => |-`` when there is
    none."""
    sigma = {f"x{i}": g for i, g in enumerate(premises)}
    rule = StructuralRule(
        "",
        tuple(SequentSchema(atoms_right=[a]) for a in sigma),
        SequentSchema(atoms_right=[] if conclusion is None else ["y"]),
    )
    if conclusion is not None:
        sigma["y"] = conclusion
    return sigma_expand(rule, Substitution(sigma))
