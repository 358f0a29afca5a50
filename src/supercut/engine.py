"""Derivability by atomic saturation, with normal-form proof reconstruction.

Atomic sequents are represented as pairs of atom sets (bitmasks over the
query's atom universe): Weakening and Contraction are common rules of
every calculus, so atomic derivability only depends on underlying sets,
and a fact stands for all of its weakenings.

Saturation keeps the subsumption-minimal facts only, an antichain: a new
fact below which a kept fact lies is dropped, and a new fact removes the
kept facts above it. Rules fire by join rather than over ground
instances. Each rule is compiled once into an atom-free shape; a join
picks one kept fact per premise, slot-free premises first, and each chosen
fact binds schema atoms to atoms of its sides: the atoms a slot-free side
must cover, or the atoms a slotted side takes out of its context. A schema
atom that the rule cuts away and no chosen fact binds takes one universe
atom absent from those facts' sides (all such atoms give the same
conclusion); one that reaches the conclusion ranges over the universe.
Rounds are semi-naive: after the first, a join must use a fact the
previous round added, and rules without premises fire in the first round
only.

getl saturates by one join instead, the context cut MC(A, B) for sets of
atoms A and B: from A |- B, from G |- D, a for each a in A and from
b, G |- D for each b in B, conclude G |- D. It is the sigma-expansion of
limited-cut-left by x := the disjunction of the negations of A and of B,
so each member is a derived rule of getl; limited-cut-left is MC({}, {x})
and limited-cut-right is MC({x}, {}) up to the order of its premises.
Saturation under the family is complete for getl:

- The family is closed under one-step expansion up to derivability. In
  MC(A, B), a := y & z, a := ~y, b := y | z or b := ~y gives another
  member. a := y | z takes two steps: MC with y, A' |- B as its core in
  the context (G, D + z) gives G |- D, z, and MC with z, A' |- B as its
  core in (G, D) then concludes. b := y & z is the mirror case. T and F
  drop an atom from A or B, or make the step's conclusion a premise. An
  image of any depth is a sequence of such steps.
- Generalized cut elimination gives every getl derivation an
  analytic-synthetic form whose structural steps are atomic instances of
  expansions of the calculus's rules. By the closure, each is derivable
  by atomic context cuts, which the join finds.

gecq, whose one rule is explosive-cut, reduces to gb and getl. ECQ is
ETL4 x B4, so S entails c in ECQ iff S has no ETL model or S entails c in
B. gecq keeps the seed facts, which decide B as in gb, and adds the empty
fact when getl's join refutes them, in one explosive-cut on phi: the
conjunction, over the seed facts U the refutation used, of ~L | R for each
fact L |- R. At(|- phi) is U; each member of At(phi |-) puts one atom of
each fact of U on the other side, and weakens a member of U. Else, with
two bits per atom (Dunn, 1976; ETL designates told true and not told
false), tell each atom true unless it is in the member's right side and
false unless in its left: each ~L | R is told true, as its fact does not
weaken to the member, and not told false, by its chosen atom. That is an
ETL model of U, against the refutation.

Reconstruction replays each fact's provenance, kept for removed facts too,
and reinserts explicit atomic Weakening/Contraction steps. A context cut
step is one structural node, named as ``rules.expansion`` names the
expansion of the calculus's limited-cut-left, for instance
``limited-cut-left[~x0 | x1 | x2 | x3]`` for MC({x0}, {x1, x2, x3}).

Interpolation splits the proofs ``derives`` builds on two facts:

- No Identity lies above a Cut. A Cut with an Identity premise concludes
  its other premise's fact or a weakening of it, which a kept fact
  subsumes, so the join never admits it. The critical nodes of a glp or
  gcl proof therefore are Milne's separating nodes.
- Every kept fact other than an Identity x |- x holds atoms of the
  premises only, as Identity is the one built-in rule whose conclusion
  has an atom that no premise binds. An atom foreign to the premises
  reaches a critical node only through the weakenings of the leaf it
  covers.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import proofs as P
from . import rules as R
from .syntax import And, Atom, Formula, Neg, Or, ResourceCapError, Sequent, Value, atoms_of, fold, sequent_key

FactKey = tuple[int, int]


class DeriveResult(Value):
    __slots__ = _fields = ("verdict", "complete", "calculus", "proof", "fact_count")


@lru_cache(maxsize=64)
def effective_calculus(calc: R.Calculus, depth_bound: int = 2) -> tuple[R.Calculus, bool]:
    """The calculus results and their proofs live in, and whether saturating
    it is complete. A calculus whose rules have the expansion property
    (Identity, Cut and the common rules, by ``rules.builtin_of``), or that
    saturates by the context cut join (getl and gecq), is its own; any other
    gains the expansion pools of its other rules. Built once per calculus
    and depth bound."""
    lacking = [r for r in calc.specific if R.builtin_of(r) not in (R.IDENTITY, R.CUT) + R.COMMON_RULES]
    if not lacking or _context_cut_base(calc) is not None or _explodes(calc):
        return calc, True
    pool = {r.schema_key(): r for r in calc.specific}
    for r in lacking:
        for e in R.expansion_pool(r, depth_bound):
            pool.setdefault(e.schema_key(), e)
    specific = tuple(sorted(pool.values(), key=lambda r: r.name))
    return R.Calculus(f"{calc.name}+exp{depth_bound}", specific), False


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


def _key(s: Sequent, index: dict[str, int]) -> FactKey:
    """The fact key of an atomic sequent: a seed member or an At-set leaf."""
    l = r = 0
    for a in s.left:
        l |= 1 << index[a.name]
    for a in s.right:
        r |= 1 << index[a.name]
    return l, r


class _Side(NamedTuple):
    atoms: tuple[int, ...]  # the distinct schema atoms on this side, by index
    slot: Optional[str]  # the context slot; None on a slot-free side
    flows: bool  # the slot's content reaches the conclusion


class _Premise(NamedTuple):
    index: int  # position among the rule's premises
    left: _Side
    right: _Side

    def admits(self, fact: FactKey) -> bool:
        """Whether the schema atoms of each slot-free side are enough to cover the fact's side."""
        return (self.left.slot is not None or fact[0].bit_count() <= len(self.left.atoms)) and (
            self.right.slot is not None or fact[1].bit_count() <= len(self.right.atoms)
        )


class _Shape(NamedTuple):
    """A structural rule compiled for joins, independent of any atom universe."""

    rule: R.StructuralRule
    names: tuple[str, ...]  # schema atoms; an index into this names one
    premises: tuple[_Premise, ...]  # slot-free premises first
    concl_left: tuple[int, ...]
    concl_right: tuple[int, ...]
    in_conclusion: tuple[bool, ...]  # per schema atom


@lru_cache(maxsize=64)
def _shapes(calc: R.Calculus) -> tuple[_Shape, ...]:
    return tuple(_compile(r) for r in calc.specific)


def _compile(rule: R.StructuralRule) -> _Shape:
    names = rule.schema_atoms()
    at = {n: i for i, n in enumerate(names)}
    c = rule.conclusion
    concl_slots = set(c.slots_left) | set(c.slots_right)

    def side(atoms: tuple[str, ...], slots: tuple[str, ...]) -> _Side:
        assert len(slots) <= 1, "saturation expects at most one context slot per side"
        slot = slots[0] if slots else None
        return _Side(tuple(sorted({at[a] for a in atoms})), slot, slot in concl_slots)

    premises = sorted(
        (_Premise(j, side(p.atoms_left, p.slots_left), side(p.atoms_right, p.slots_right))
         for j, p in enumerate(rule.premises)),
        key=lambda p: ((p.left.slot is not None) + (p.right.slot is not None), p.index),
    )
    in_conclusion = c.atom_names()
    return _Shape(
        rule, names, tuple(premises),
        tuple(sorted({at[a] for a in c.atoms_left})), tuple(sorted({at[a] for a in c.atoms_right})),
        tuple(n in in_conclusion for n in names),
    )


def _bits(m: int) -> list[int]:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _placements(side: _Side, m: int, theta: list[int], avoid: list[int]) -> Iterable[int]:
    """Place the side's unbound schema atoms against the fact side ``m``:
    each takes an atom of ``m`` or is kept out of ``m`` for good. With each
    placement applied, give what of ``m`` the side's atoms leave uncovered;
    a slot-free side must leave nothing."""
    rest = m
    for x in side.atoms:
        if theta[x] < 0:
            if m:
                return _place_free(side, m, theta, avoid)
        else:
            rest &= ~(1 << theta[x])
    # nothing to place: every atom is bound, or m is empty
    return (rest,) if side.slot is not None or not rest else ()


def _place_free(side: _Side, m: int, theta: list[int], avoid: list[int]) -> Iterator[int]:
    free = [x for x in side.atoms if theta[x] < 0]
    saved = [avoid[x] for x in free]
    for values in itertools.product(*(_bits(m & ~avoid[x]) + [-1] for x in free)):
        for x, v in zip(free, values):
            if v < 0:
                avoid[x] |= m
            else:
                theta[x] = v
        rest = m
        for x in side.atoms:
            if theta[x] >= 0:
                rest &= ~(1 << theta[x])
        if side.slot is not None or not rest:
            yield rest
        for x, a in zip(free, saved):
            theta[x] = -1
            avoid[x] = a


def _join(shape: _Shape, cands: list[list[FactKey]], delta: set[FactKey], fresh: bool, umask: int, subsumed, offer) -> None:
    """Offer the conclusions of the rule from one candidate fact per premise;
    unless ``fresh``, only from joins that use a fact of ``delta``.

    Premises are taken in order, each placing the schema atoms its sides
    mention (``_placements``), so the conclusion's share of a premise is
    known once its fact is chosen: a join is cut short as soon as that
    share already contains a kept fact, the premise's fact included.
    """
    n = len(shape.premises)
    theta = [-1] * len(shape.names)
    avoid = [0] * len(shape.names)  # per unbound atom, the atoms it keeps out of
    chosen: list[FactKey] = [(0, 0)] * n
    # can a premise from position p on still take a fact of delta?
    delta_after = [False] * (n + 1)
    for p in range(n - 1, -1, -1):
        delta_after[p] = delta_after[p + 1] or any(f in delta for f in cands[p])

    def rec(p: int, fresh: bool, cl: int, cr: int) -> None:
        if p == n:
            if fresh:
                _conclude(shape, theta, avoid, chosen, (cl, cr), umask, offer)
            return
        if not fresh and not delta_after[p]:
            return
        prem = shape.premises[p]
        left, right = prem.left, prem.right
        for f in cands[p]:
            chosen[p] = f
            with_f = fresh or f in delta
            for rest_l in _placements(left, f[0], theta, avoid):
                for rest_r in _placements(right, f[1], theta, avoid):
                    share_l = rest_l if left.flows else 0
                    share_r = rest_r if right.flows else 0
                    if share_l == f[0] and share_r == f[1]:
                        continue
                    key = (cl | share_l, cr | share_r)
                    if not subsumed(key):
                        rec(p + 1, with_f, *key)

    rec(0, fresh, 0, 0)


def _conclude(shape: _Shape, theta: list[int], avoid: list[int], chosen: list[FactKey], base: FactKey, umask: int, offer) -> None:
    """Bind the atoms no chosen fact placed and offer each conclusion.

    An atom of the conclusion ranges over the universe atoms it was not kept
    out of. A cut-away atom takes one of them: each removes nothing from any
    premise, so all give the same conclusion; with none left, no instance
    exists.
    """
    free = [x for x, v in enumerate(theta) if v < 0]
    options = []
    for x in free:
        open_ = _bits(umask & ~avoid[x])
        if not open_:
            return
        options.append(open_ if shape.in_conclusion[x] else open_[:1])
    for values in itertools.product(*options):
        for x, v in zip(free, values):
            theta[x] = v
        cl, cr = base
        for x in shape.concl_left:
            cl |= 1 << theta[x]
        for x in shape.concl_right:
            cr |= 1 << theta[x]
        offer((cl, cr), shape, theta, chosen)
    for x in free:
        theta[x] = -1


def _provenance(shape: _Shape, theta: list[int], chosen: list[FactKey], universe: Sequence[str]) -> tuple:
    """The ``("rule", rule, theta, parents, slots)`` record reconstruction replays."""
    parents: list[FactKey] = [(0, 0)] * len(chosen)
    slots: dict[str, tuple[int, int]] = {}
    for prem, f in zip(shape.premises, chosen):
        parents[prem.index] = f
        for s, side in enumerate((prem.left, prem.right)):
            if side.slot is None:
                continue
            rest = f[s]
            for x in side.atoms:
                rest &= ~(1 << theta[x])
            old = slots.get(side.slot, (0, 0))
            slots[side.slot] = (old[0] | rest, old[1]) if s == 0 else (old[0], old[1] | rest)
    return ("rule", shape.rule, {n: Atom(universe[v]) for n, v in zip(shape.names, theta)}, tuple(parents), slots)


@lru_cache(maxsize=64)
def _context_cut_base(calc: R.Calculus) -> Optional[R.StructuralRule]:
    """The calculus's limited-cut-left, which names the context cut steps,
    when saturation closes the calculus under the context cut join: its
    rules are limited-cut-left and perhaps limited-cut-right. Else None."""
    builtins = [R.builtin_of(r) for r in calc.specific]
    if R.LIMITED_CUT_LEFT in builtins and all(b in (R.LIMITED_CUT_LEFT, R.LIMITED_CUT_RIGHT) for b in builtins):
        return calc.specific[builtins.index(R.LIMITED_CUT_LEFT)]
    return None


def _context_cut_join(snapshot: list[FactKey], delta: set[FactKey], first: bool, subsumed, offer, cap: int) -> None:
    """Offer the conclusions of the context cut MC(A, B) with each kept fact
    (A, B) as its core: one kept fact per atom of A with that atom on its
    right, one per atom of B with it on its left, and as conclusion the
    union of those facts with each one's atom taken out.

    The atoms are taken one at a time, fewest candidates first, over the
    set of partial unions, so a large |A| + |B| costs no recursion; a
    partial union that contains a kept fact is dropped, since every
    conclusion it leads to does too. Unless ``first``, a join must use a
    fact of ``delta``. More than ``cap`` partial unions at once raise
    ResourceCapError, as more than ``cap`` facts do.
    """
    by_atom: dict[tuple[int, int], list[tuple[FactKey, FactKey]]] = {}

    def holding(i: int, side: int) -> list[tuple[FactKey, FactKey]]:
        """(share, fact) for each fact with atom i on the side."""
        if (i, side) not in by_atom:
            bit = 1 << i
            by_atom[i, side] = [((f[0] & ~bit, f[1]) if side == 0 else (f[0], f[1] & ~bit), f)
                                for f in snapshot if f[side] & bit]
        return by_atom[i, side]

    for core in snapshot:
        # an atom of A is needed on the right (side 1), one of B on the left
        needs = [(i, 1) for i in _bits(core[0])] + [(i, 0) for i in _bits(core[1])]
        lists = [holding(*need) for need in needs]
        if not needs or not all(lists):
            continue
        order = sorted(range(len(needs)), key=lambda k: len(lists[k]))
        delta_after = [False] * (len(order) + 1)
        for j in range(len(order) - 1, -1, -1):
            delta_after[j] = delta_after[j + 1] or any(f in delta for _, f in lists[order[j]])
        # partial union -> (uses a fact of delta, the facts chosen so far)
        frontier: dict[FactKey, tuple[bool, tuple[FactKey, ...]]] = {(0, 0): (first or core in delta, ())}
        for j, k in enumerate(order):
            # the first way to a partial union is kept: another way that
            # uses delta where it does not leads to the same conclusions,
            # and those from facts before delta were offered in earlier rounds
            grown: dict[FactKey, Optional[tuple[bool, tuple[FactKey, ...]]]] = {}
            for (pl, pr), (fresh, chosen) in frontier.items():
                if not fresh and not delta_after[j]:
                    continue
                for (sl, sr), f in lists[k]:
                    key = (pl | sl, pr | sr)
                    if key not in grown:
                        grown[key] = None if subsumed(key) else (fresh or f in delta, chosen + (f,))
            frontier = {key: v for key, v in grown.items() if v is not None}
            if len(frontier) > cap:
                raise ResourceCapError(f"fact cap {cap} exceeded by the partial unions of one context cut")
        for key, (fresh, chosen) in frontier.items():
            if fresh:
                offer(key, core, {needs[k]: f for k, f in zip(order, chosen)})


def _clause(fact: FactKey, universe: Sequence[str]) -> Formula:
    """~L | R for the fact L |- R: the disjunction of ~a for the atoms a of
    L and of the atoms of R."""
    return reduce(Or, [Neg(Atom(universe[i])) for i in _bits(fact[0])] + [Atom(universe[i]) for i in _bits(fact[1])])


def _cut_provenance(
    base: R.StructuralRule, key: FactKey, core: FactKey, picks: dict[tuple[int, int], FactKey],
    universe: Sequence[str], index: dict[str, int],
) -> tuple:
    """The ``("rule", rule, theta, parents, slots)`` record of a context cut
    step, as ``_provenance`` gives for a compiled rule: MC(A, B) is base,
    the calculus's limited-cut-left, expanded by the core's clause, with the
    core first."""
    rule, theta = R.expansion(base, (_clause(core, universe),))
    parents = [core]
    for p in rule.premises[1:]:
        # G |- D, a for an atom a of A; b, G |- D for an atom b of B
        need = (index[theta[p.atoms_right[0]].name], 1) if p.atoms_right else (index[theta[p.atoms_left[0]].name], 0)
        parents.append(picks[need])
    (g,), (d,) = rule.conclusion.slots_left, rule.conclusion.slots_right
    return ("rule", rule, theta, tuple(parents), {g: (key[0], 0), d: (0, key[1])})


@lru_cache(maxsize=64)
def _explodes(calc: R.Calculus) -> bool:
    """Whether the calculus's one rule is explosive-cut (gecq)."""
    return [R.builtin_of(r) for r in calc.specific] == [R.EXPLOSIVE_CUT]


def _explosion(calc: R.Calculus, premises: Sequence[Sequent], state: SaturationState, max_facts: int) -> Optional[tuple]:
    """The provenance of the empty fact: one explosive-cut step over the
    seed facts that a getl refutation of the premises uses (see the module
    docstring), or None without one. No getl fact is kept."""
    refuted = saturate(premises, R.builtin_calculus("getl"), state.universe, max_facts)
    if (0, 0) not in refuted.facts:
        return None
    used: dict[FactKey, None] = {}
    fold((0, 0), refuted.parents, lambda k, _: None, lambda k: k, used)
    facts = sorted(k for k in used if refuted.provenance[k][0] == "seed")
    count = math.prod(l.bit_count() + r.bit_count() for l, r in facts)  # transversals
    if count > R.MAX_EXPANSION_IMAGES:
        raise ResourceCapError(f"expansion cap {R.MAX_EXPANSION_IMAGES} exceeded: explosive-cut over {count} transversals")
    rule, theta = R.expansion(calc.specific[0], (reduce(And, [_clause(f, state.universe) for f in facts]),))
    keys = [_key(_instance_sequent(p, theta, {}, state.universe), state.index) for p in rule.premises]
    parents = tuple(next(f for f in facts if f[0] & ~l == 0 and f[1] & ~r == 0) for l, r in keys)
    return ("rule", rule, theta, parents, {})


class SaturationState:
    """The saturated store: ``facts`` holds the subsumption-minimal facts and
    ``provenance`` every fact ever admitted, each with how it was derived."""

    def __init__(self, universe: tuple[str, ...], facts: dict[FactKey, tuple], provenance: dict[FactKey, tuple]):
        self.universe = universe
        self.facts = facts
        self.provenance = provenance

    @cached_property
    def index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.universe)}

    def parents(self, key: FactKey) -> tuple[FactKey, ...]:
        """The facts the provenance of key derives it from."""
        prov = self.provenance[key]
        return prov[3] if prov[0] == "rule" else ()


def saturate(
    premises: Sequence[Sequent],
    calc: R.Calculus,
    universe: Sequence[str],
    max_facts: int = 200000,
) -> SaturationState:
    """Close the seed At-set facts under the calculus rules, keeping the
    subsumption-minimal facts; ``max_facts`` caps the facts admitted."""
    state = SaturationState(tuple(universe), {}, {})
    facts, provenance, index = state.facts, state.provenance, state.index
    added: list[FactKey] = []

    def subsumed(key: FactKey) -> bool:
        if key in provenance:  # admitted before: it or a fact below it is kept
            return True
        l, r = key
        return any(a & ~l == 0 and b & ~r == 0 for a, b in facts)

    def keep(key: FactKey, prov: tuple) -> None:
        if len(provenance) >= max_facts:
            raise ResourceCapError(f"fact cap {max_facts} exceeded")
        l, r = key
        for k in [k for k in facts if l & ~k[0] == 0 and r & ~k[1] == 0]:
            del facts[k]
        facts[key] = provenance[key] = prov
        added.append(key)

    def offer(key: FactKey, shape: _Shape, theta: list[int], chosen: list[FactKey]) -> None:
        if not subsumed(key):
            keep(key, _provenance(shape, theta, chosen, state.universe))

    for i, s in enumerate(premises):
        for member in sorted(R.at_set(s), key=sequent_key):
            key = _key(member, index)
            if not subsumed(key):
                keep(key, ("seed", i, member))

    def offer_cut(key: FactKey, core: FactKey, picks: dict[tuple[int, int], FactKey]) -> None:
        if not subsumed(key):
            keep(key, _cut_provenance(cut_base, key, core, picks, state.universe, index))

    if _explodes(calc):
        if (0, 0) not in facts and (prov := _explosion(calc, premises, state, max_facts)):
            keep((0, 0), prov)
        return state

    cut_base = _context_cut_base(calc)
    shapes = () if cut_base is not None else _shapes(calc)
    umask = (1 << len(universe)) - 1
    delta: set[FactKey] = set()
    first = True
    while first or delta:
        snapshot = list(facts)
        added.clear()
        if cut_base is not None:
            _context_cut_join(snapshot, delta, first, subsumed, offer_cut, max_facts)
        for shape in shapes:
            cands = [[f for f in snapshot if p.admits(f)] for p in shape.premises]
            if all(cands):
                _join(shape, cands, delta, first, umask, subsumed, offer)
        delta = {k for k in added if k in facts}
        first = False
    return state


def _fact_sequent(key: FactKey, universe: Sequence[str]) -> Sequent:
    return Sequent(
        (Atom(a) for i, a in enumerate(universe) if key[0] >> i & 1),
        (Atom(a) for i, a in enumerate(universe) if key[1] >> i & 1),
    )


def _covering_fact(state: SaturationState, leaf: Sequent) -> Optional[FactKey]:
    """The smallest kept fact that weakens to the leaf (ties: the least key)."""
    l, r = _key(leaf, state.index)
    best = None
    for k in state.facts:
        if k[0] & ~l == 0 and k[1] & ~r == 0:
            cand = (k[0].bit_count() + k[1].bit_count(), k)
            if best is None or cand < best:
                best = cand
    return best[1] if best else None


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def reconstruct(
    state: SaturationState, goal: Sequent, premises: Sequence[Sequent], covers: dict[Sequent, FactKey]
) -> P.Proof:
    """Assemble the three-phase proof: eliminations from the premises,
    atomic structural steps from the saturation provenance, introductions
    down to the goal, each At-set leaf weakened from its fact in ``covers``."""
    universe = state.universe
    elim_cache: dict[int, dict[Sequent, P.Proof]] = {}
    replayed: dict[FactKey, P.Proof] = {}  # shared by every leaf

    def elim_for(i: int) -> dict[Sequent, P.Proof]:
        if i not in elim_cache:
            elim_cache[i] = P.elim_targets(P.premise(premises[i], i))
        return elim_cache[i]

    def replay(key: FactKey, kids: tuple[P.Proof, ...]) -> P.Proof:
        """key's proof from those of its provenance parents."""
        prov = state.provenance[key]
        target = _fact_sequent(key, universe)
        if prov[0] == "seed":
            _, i, member = prov
            return P.contract_to(elim_for(i)[member], target)
        _, rule, theta, _, slots = prov
        children = [P.weaken_to(kid, _instance_sequent(schema, theta, slots, universe))
                    for kid, schema in zip(kids, rule.premises)]
        concl = _instance_sequent(rule.conclusion, theta, slots, universe)
        return P.contract_to(P.structural(rule.name, children, concl), target)

    def mid(leaf: Sequent) -> P.Proof:
        return P.weaken_to(fold(covers[leaf], state.parents, replay, lambda k: k, replayed), leaf)

    return P.build_intro(goal, mid)


def _instance_sequent(schema: R.SequentSchema, theta: dict[str, Atom], slots: dict[str, tuple[int, int]],
                      universe: Sequence[str]) -> Sequent:
    return schema.instance(theta.__getitem__, lambda s: _fact_sequent(slots.get(s, (0, 0)), universe))


# ---------------------------------------------------------------------------
# Public decision procedures
# ---------------------------------------------------------------------------


def derives(
    premises: Iterable[Sequent],
    conclusion: Sequent,
    calc: R.Calculus,
    max_facts: int = 200000,
) -> DeriveResult:
    """Decide derivability; exact for the built-in calculi. A custom
    calculus that needs an expansion pool is sound but bounded.

    Returns a structurally atomic analytic-synthetic proof with the
    subformula property, which ``check`` accepts, whenever the verdict is positive.
    """
    prems = list(premises)
    eff, complete = effective_calculus(calc)
    if conclusion in prems:
        proof = P.premise(conclusion, prems.index(conclusion))
        return DeriveResult(True, complete, eff, proof, 0)
    universe = sorted(set().union(*(atoms_of(s) for s in prems + [conclusion])))
    if not universe:
        universe = ["a"]  # subformula-property corner: one designated atom
    state = saturate(prems, eff, universe, max_facts=max_facts)
    covers = {leaf: _covering_fact(state, leaf) for leaf in R.at_set(conclusion)}
    verdict = None not in covers.values()
    proof = reconstruct(state, conclusion, prems, covers) if verdict else None
    return DeriveResult(verdict, complete, eff, proof, len(state.provenance))


def refutes(
    premises: Iterable[Sequent],
    calc: R.Calculus,
    max_facts: int = 200000,
) -> DeriveResult:
    """Derivability of the empty sequent; refutation proofs have no introductions."""
    return derives(premises, Sequent(), calc, max_facts=max_facts)
