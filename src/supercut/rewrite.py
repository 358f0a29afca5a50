"""Proof rewriting: structural expansion into three-phase form, subformula
enforcement, cut elimination and refutation reshaping."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from . import proofs as P
from . import rules as R
from .proofs import Proof
from .syntax import (
    Atom,
    Formula,
    Sequent,
    Substitution,
    SupercutError,
    apply_subst,
    atoms_of,
    multiset_minus,
    sequent_key,
)


class RewriteError(SupercutError):
    pass


class InexpandableNode(RewriteError):
    pass


class RefutationShapeError(RewriteError):
    pass


class RewriteTrace:
    """Replayable record of rewrite events: (pass, site, rule applied)."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[tuple[str, str, str]] = []

    def record(self, pass_name: str, site: str, rule: str) -> None:
        self.entries.append((pass_name, site, rule))


# ---------------------------------------------------------------------------
# expand_structural
# ---------------------------------------------------------------------------


Matches = dict[int, R.StructuralMatch]
Table = dict[Sequent, Proof]


def expand_structural(
    p: Proof, calc: Optional[R.Calculus], trace: Optional[RewriteTrace] = None, matches: Optional[Matches] = None
) -> Proof:
    """The three-phase form of p: eliminations from the premises, atomic
    structural steps, introductions down to the conclusion.

    A fold maps each node to its At-leaf table, and the root's table
    supplies the leaves of one introduction tree. ``calc`` may be None when
    every structural node of p is atomic.

    ``matches`` maps the id of structural nodes of p to their matches (as
    ``proofs._check_matches`` returns them); every other structural node
    that needs its match is matched here. The dict is extended in place.
    """
    matches = {} if matches is None else matches
    tables = P.rebuild(p, lambda node, kids: _at_leaves(node, kids, calc, trace, matches))
    return P.build_intro(p.conclusion, tables.__getitem__)


def make_analytic_synthetic(p: Proof) -> Proof:
    """The three-phase form of a structurally atomic proof, by the fold
    ``expand_structural`` is: every structural node is atomic, so no
    calculus is consulted."""
    if not P.is_structurally_atomic(p):
        raise RewriteError("make_analytic_synthetic requires a structurally atomic proof")
    return expand_structural(p, None)


def _structural_match(node: Proof, calc: R.Calculus, matches: Matches) -> R.StructuralMatch:
    m = matches.get(id(node))
    if m is not None:
        return m
    rule = calc.rule(node.rule)
    if rule is None:
        raise InexpandableNode(f"structural rule {node.rule} not in calculus {calc.name}")
    m = R.match_structural(rule, [c.conclusion for c in node.children], node.conclusion)
    if m is None:
        raise InexpandableNode(f"node is not an instance of {node.rule}")
    matches[id(node)] = m
    return m


def _at_leaves(
    node: Proof, kids: tuple[Table, ...], calc: Optional[R.Calculus], trace: Optional[RewriteTrace], matches: Matches
) -> Table:
    """node's At-leaf table: each member of At(node.conclusion), and maybe
    more atomic sequents, mapped to an introduction-free proof of it, from
    the tables of node's children.

    At(branch) is part of At(premise) and At(conclusion) is the union of
    At(branch) over an introduction's branches, so an elimination keeps its
    child's table and an introduction merges its children's, the earlier
    child winning on a shared key.
    """
    if node.rule == "premise":
        return P.elim_targets(node)
    if P.is_axiom(node.rule):
        return {}
    if P.is_elim(node.rule):
        return kids[0]
    if P.is_intro(node.rule):
        if len(kids) == 1:
            return kids[0]
        merged: Table = {}
        for t in reversed(kids):
            merged.update(t)
        return merged
    if P.is_atomic_step(node):
        return {node.conclusion: P.with_children(node, [t[c.conclusion] for t, c in zip(kids, node.children)])}
    m = _structural_match(node, calc, matches)
    compound = not all(isinstance(v, Atom) for v in m.atom_assignment.values())
    if trace is not None:
        trace.record("expand-principal" if compound else "atomize-context", node.conclusion.render(), node.rule)
    base = R.builtin_of(m.rule)  # known by schema, as a calculus may name it otherwise
    if compound and base is R.CUT:
        # a Cut against an Identity concludes what its other child concludes
        for i, kid in enumerate(node.children):
            if R.builtin_of(calc.rule(kid.rule)) is R.IDENTITY:
                return kids[1 - i]
    if compound and (base is R.IDENTITY or base in R.COMMON_RULES):
        # their expansions have several conclusions: tables from At-sets
        return _principal_table(node, m, base, kids)
    return _sandwich(node, m, kids)


def _members(s: Sequent) -> list[Sequent]:
    return sorted(R.at_set(s), key=sequent_key)


def _join(s: Sequent, t: Sequent) -> Sequent:
    return s.add(t.left, t.right)


def _principal_table(node: Proof, m: R.StructuralMatch, base: R.StructuralRule, tables: tuple[Table, ...]) -> Table:
    """The At-leaf table of a Weakening, Contraction or Identity (``base``) on
    a compound formula f, from At-sets and atomic steps: At(G, f |- D) is the
    joins of a member of At(G |- D) with one of At(f |-), and likewise on the
    right. Members go in ``sequent_key`` order; the first entry for a key wins."""
    table: Table = {}
    (f,) = m.atom_assignment.values()
    if base is R.IDENTITY:
        for s in _members(Sequent([f], [f])):
            shared = next(a for a in s.left if a in s.right)
            table[s] = P.weaken_to(P.structural(m.rule.name, [], Sequent([shared], [shared])), s)
        return table
    side = R.COMMON_SIDE[base.name]
    (child,) = tables
    parts = _members(Sequent(**{side: [f]}))
    for rest in _members(node.conclusion.remove_one(f, side)):
        for part in parts:
            s = _join(rest, part)
            if s in table:
                continue
            if s in child:
                table[s] = child[s]
            elif base in (R.WEAKENING_LEFT, R.WEAKENING_RIGHT):
                table[s] = P.weaken_to(child[rest], s)
            else:
                table[s] = P.contract_to(child[_join(s, part)], s)
    return table


def _slot_side(rule: R.StructuralRule, slot: str) -> str:
    for schema in list(rule.premises) + [rule.conclusion]:
        if slot in schema.slots_left:
            return "left"
        if slot in schema.slots_right:
            return "right"
    raise AssertionError(slot)


def _sandwich(node: Proof, m: R.StructuralMatch, tables: tuple[Table, ...]) -> Table:
    """The At-leaf table of a structural step: atomic instances of its
    expansion, each child taken from the table of the step's premise it
    comes from.

    The step is expanded over its atom assignment, and each schema atom of
    the expansion is mapped back to its atom in the instances.
    """
    rule = m.rule
    step, theta = R.expansion(rule, tuple(m.atom_assignment[a] for a in rule.schema_atoms()))
    if step is None:
        raise InexpandableNode(f"the expansion of {node.rule} on this instance has several conclusions")

    slot_branches = {
        slot: _members(Sequent(**{_slot_side(rule, slot): m.slot_assignment.get(slot, ())})) for slot in rule.slot_names()
    }

    supply: Table = {}
    slots_sorted = sorted(rule.slot_names())

    for combo in itertools.product(*(slot_branches[s] for s in slots_sorted)):
        bc = dict(zip(slots_sorted, combo))
        # the expansion's schema atoms are the fresh atoms of its images
        member = step.conclusion.instance(theta.__getitem__, bc.__getitem__)
        if member in supply:
            continue
        children = [tables[j][schema.instance(theta.__getitem__, bc.__getitem__)]
                    for j, schema in zip(step.sources, step.premises)]
        supply[member] = P.structural(step.name, children, member)
    return supply


# ---------------------------------------------------------------------------
# Subformula enforcement
# ---------------------------------------------------------------------------


def enforce_subformula(
    p: Proof, premises: Sequence[Sequent], conclusion: Sequent, trace: Optional[RewriteTrace] = None
) -> Proof:
    """Rename atoms foreign to premises and conclusion to a resident atom;
    rebuild constant-only proofs outright."""
    resident: set[str] = set(atoms_of(conclusion))
    for s in premises:
        resident |= atoms_of(s)
    # the proof's distinct formulas are far fewer than its sequents' members
    forms = {f for node in p.nodes() for f in node.conclusion.left + node.conclusion.right}
    foreign = set().union(*map(atoms_of, forms)) - resident
    if not foreign:
        return p
    if trace is not None:
        trace.record("enforce-subformula", p.conclusion.render(), ",".join(sorted(foreign)))
    if resident:
        q = Atom(sorted(resident)[0])
        ren = Substitution({a: q for a in sorted(foreign)})
        return P.rebuild(
            p, lambda node, kids: Proof(apply_subst(ren, node.conclusion), node.rule, kids, node.premise_index)
        )
    # constant-only corner: no atom to rename to, so rebuild from scratch;
    # every leaf is |-, weakened from the first premise's chain to |-
    def supply(leaf: Sequent) -> Proof:
        for i, s in enumerate(premises):
            if Sequent() in R.at_set(s):
                return P.weaken_to(P.elim_targets(P.premise(s, i))[Sequent()], leaf)
        raise RewriteError("conclusion requires the empty sequent but no premise yields it")

    return P.build_intro(conclusion, supply)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def normalize(
    p: Proof,
    calc: R.Calculus,
    premises: Sequence[Sequent],
    conclusion: Sequent,
    trace: Optional[RewriteTrace] = None,
) -> Proof:
    """Full pipeline to structurally atomic analytic-synthetic form with the
    subformula property; idempotent on its own output."""
    res, matches = P._check_matches(p, calc, premises)
    if not res.ok:
        raise RewriteError(f"input proof fails checking at {res.path}: {res.reason}")
    if p.conclusion != conclusion:
        raise RewriteError("proof conclusion differs from the stated conclusion")
    out = expand_structural(p, calc, trace, matches)
    out = enforce_subformula(out, premises, conclusion, trace)
    assert out.conclusion == conclusion
    assert P.is_structurally_atomic(out) and P.is_analytic_synthetic(out)
    return out


def replay_trace(
    p: Proof,
    calc: R.Calculus,
    premises: Sequence[Sequent],
    conclusion: Sequent,
    trace: RewriteTrace,
) -> Proof:
    """Re-run the deterministic pipeline and verify it reproduces the trace."""
    fresh = RewriteTrace()
    out = normalize(p, calc, premises, conclusion, fresh)
    if fresh.entries != trace.entries:
        raise RewriteError("trace does not replay")
    return out


# ---------------------------------------------------------------------------
# Cut elimination (classical corollary)
# ---------------------------------------------------------------------------


def eliminate_cuts(p: Proof) -> Proof:
    """Rebuild a premise-free normalized proof using only Identity, Weakening
    and introduction rules: the classical cut-free shape."""
    if p.premise_leaves():
        raise RewriteError("eliminate_cuts requires a proof from no premises")

    def supply(leaf: Sequent) -> Proof:
        shared = sorted(
            {f.name for f in leaf.left if isinstance(f, Atom)}
            & {f.name for f in leaf.right if isinstance(f, Atom)}
        )
        if not shared:
            raise RewriteError(f"atomic goal {leaf.render()} is not classically valid")
        a = Atom(shared[0])
        ident = P.structural(R.IDENTITY.name, [], Sequent([a], [a]))
        return P.weaken_to(ident, leaf)

    return P.build_intro(p.conclusion, supply)


# ---------------------------------------------------------------------------
# Refutation reshaping
# ---------------------------------------------------------------------------


def simplify_refutation(p: Proof, calc: R.Calculus = R.BUILTIN_NAMES) -> Proof:
    """Reshape an atomic refutation in ``calc`` into contractions followed
    by cuts, per branch, by one fold: see ``_reshape``. Past Weakening and
    Contraction, each step is an Identity or one of ``rules.CUTS`` (they stay
    cuts as their contexts shrink) by the rule its name names in ``calc`` up
    to renaming, a cut's two premises in either order; any other, such as a
    ``cut[...]`` step that cuts a compound clause, raises RewriteError."""
    if not p.conclusion.is_empty():
        raise RewriteError("simplify_refutation expects a proof of the empty sequent")
    if not P.is_structurally_atomic(p):
        raise RewriteError("simplify_refutation expects a structurally atomic proof")
    for node in p.nodes():
        if node.rule == "premise":
            if not node.conclusion.is_atomic():
                raise RewriteError("refutation premises must be atomic")
        elif node.rule not in R.COMMON_SIDE:
            arity, rule = len(node.children), calc.rule(node.rule)
            if not (arity == 0 and R.builtin_of(rule) is R.IDENTITY or arity == 2 and _is_cut(rule)):
                raise RewriteError(f"unexpected rule in refutation: {node.rule}")
    out = P.rebuild(p, _reshape)
    if any(_is_identity(node) for node in out.nodes()):
        raise RewriteError("identity node not consumed by a cut")
    _assert_contraction_then_cut(out)
    return out


def _is_cut(rule: Optional[R.StructuralRule]) -> bool:
    """rule is one of ``rules.CUTS`` up to renaming, its two premises in either order."""
    return rule is not None and any(R.builtin_of(R.StructuralRule(rule.name, order, rule.conclusion)) in R.CUTS
                                    for order in (rule.premises, rule.premises[::-1]))


def _is_identity(node: Proof) -> bool:
    return not node.children and P.is_structural(node.rule)


def _cut_atom(node: Proof) -> tuple[Atom, tuple[str, str]]:
    """The atom a cut step cuts and its side in each child: right, left, or the reverse for swapped premises."""
    kids = [c.conclusion for c in node.children]
    for order, sides in ((kids, ("right", "left")), (kids[::-1], ("left", "right"))):
        m = R.match_structural(R.CUT, order, node.conclusion)
        if m is not None:
            return m.atom_assignment["x"], sides
    raise AssertionError(node.rule)


def _reshape(node: Proof, kids: tuple[Proof, ...]) -> Proof:
    """node's result: a Weakening-free proof of part of node's conclusion,
    built from its children's results. A step with two children is a Cut,
    a structural step with none an Identity.

    A Weakening gives way to its child. A Cut gives way to a child that
    lost an occurrence of the cut atom on the side the cut consumes, the
    first such child, or else to the partner of an Identity. A Contraction
    whose child still holds both copies goes above the cuts under it.
    """
    if node.rule in R.WEAKENING.values():
        return kids[0]
    if len(node.children) == 2:
        x, sides = _cut_atom(node)
        for kid, child, side in zip(kids, node.children, sides):
            if getattr(kid.conclusion, side).count(x) < getattr(child.conclusion, side).count(x):
                return kid
        for i, kid in enumerate(kids):
            if _is_identity(kid):
                return kids[1 - i]
        conclusion = _join(*(kid.conclusion.remove_one(x, side) for kid, side in zip(kids, sides)))
        return P.with_children(node, kids, conclusion)
    if node.rule in R.CONTRACTION.values():
        y, side = P.common_formula(node)
        (kid,) = kids
        if getattr(kid.conclusion, side).count(y) < 2:
            return kid
        return _contract_above_cuts(node, kid, y, side)
    return node


def _contract_above_cuts(node: Proof, kid: Proof, y: Formula, side: str) -> Proof:
    """node's contraction of y applied to kid, above the cuts under it: at
    each cut it goes into the first child that holds both copies."""
    spine: list[tuple[Proof, int]] = []
    while len(kid.children) == 2:
        i = next((i for i, c in enumerate(kid.children) if getattr(c.conclusion, side).count(y) >= 2), None)
        if i is None:
            raise RefutationShapeError(
                "contraction merges occurrences from both cut premises; "
                "no contraction-then-cut reshaping exists for this proof"
            )
        spine.append((kid, i))
        kid = kid.children[i]
    out = P.with_children(node, [kid], kid.conclusion.remove_one(y, side))
    for cut, i in reversed(spine):
        kids = list(cut.children)
        kids[i] = out
        out = P.with_children(cut, kids, cut.conclusion.remove_one(y, side))
    return out


def _assert_contraction_then_cut(p: Proof) -> None:
    # branch order leaf-to-root must be contractions first, cuts second
    for node, below in P.nodes_under(p, lambda n: n.rule in R.CONTRACTION.values()):
        if below and len(node.children) == 2:
            raise RefutationShapeError("cut above a contraction survived reshaping")


# ---------------------------------------------------------------------------
# Identity/Cut separation
# ---------------------------------------------------------------------------


def separate_identity_cut(p: Proof, calc: R.Calculus) -> Proof:
    """Rewrite a normalized proof in ``calc`` so no branch contains both
    Identity and Cut, by one fold: a Cut step, atomic or a ``cut[...]`` step
    of a Cut on a compound formula, with rewritten children that are
    Identities under Weakenings and Contractions becomes a weakening of the
    first of those Identities that fits in its conclusion, or else of the
    first child that does. An atomic Cut always has one that fits. A
    ``cut[...]`` step whose Identities feed atoms it consumes, while its
    other children keep atoms it consumes, has none and raises RewriteError.
    A step's rule is the one its name, brackets cut off, names in ``calc``."""
    if not (P.is_structurally_atomic(p) and P.is_analytic_synthetic(p)):
        raise RewriteError("separate_identity_cut requires a normalized proof")

    def rule_is(node: Proof, builtin: R.StructuralRule) -> bool:
        return R.builtin_of(calc.rule(node.rule.partition("[")[0])) is builtin

    def identity_under(node: Proof) -> Optional[Proof]:
        """The Identity step when node is one under weakenings and contractions only."""
        while node.rule in R.COMMON_SIDE:
            node = node.children[0]
        return node if rule_is(node, R.IDENTITY) else None

    def separate(node: Proof, kids: tuple[Proof, ...]) -> Proof:
        idents = [i for i in map(identity_under, kids) if i is not None] if rule_is(node, R.CUT) else []
        if not idents:
            return P.with_children(node, kids)
        for fit in idents + list(kids):
            if all(multiset_minus(getattr(node.conclusion, side), getattr(fit.conclusion, side)) is not None
                   for side in ("left", "right")):
                return P.weaken_to(fit, node.conclusion)
        raise RewriteError(f"no weakening separates the identity on {idents[0].conclusion.left[0].name} from {node.rule}")

    out = P.rebuild(p, separate)
    if any(below and rule_is(node, R.IDENTITY) for node, below in P.nodes_under(out, lambda n: rule_is(n, R.CUT))):
        raise RewriteError("identity above a cut survived separation")
    return out
