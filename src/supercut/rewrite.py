"""Proof rewriting: structural expansion into three-phase form, subformula
enforcement, cut elimination and refutation reshaping."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    map_atoms,
    sequent_key,
)


class RewriteError(SupercutError):
    pass


class InexpandableNode(RewriteError):
    pass


class RefutationShapeError(RewriteError):
    pass


@dataclass
class RewriteTrace:
    """Replayable record of rewrite events: (pass, site, rule applied)."""

    entries: list[tuple[str, str, str]] = field(default_factory=list)

    def record(self, pass_name: str, site: str, rule: str) -> None:
        self.entries.append((pass_name, site, rule))


# ---------------------------------------------------------------------------
# Expansion-aware constructors (recurse on the principal formula)
# ---------------------------------------------------------------------------


def weaken_by(p: Proof, f: Formula, side: str) -> Proof:
    """Weaken p by f on the given side, atomizing f: f is introduced over
    weakenings by its components."""
    goal = p.conclusion.add(**{side: [f]})
    if isinstance(f, Atom):
        return P.structural(R.WEAKENING[side], [p], goal)
    row = R.ROWS.get((type(f), side))
    if row is None:
        return P.axiom(goal, side)
    branches = iter(row.branches)

    def prove(_: Sequent) -> Proof:
        q = p
        for comp_side, attr in next(branches):
            q = weaken_by(q, getattr(f, attr), comp_side)
        return q

    return P.intro(row, goal, f, prove)


def contract_by(p: Proof, f: Formula, side: str) -> Proof:
    """From a proof of f, f, G |- D (f on the given side) produce f, G |- D,
    atomizing f: both copies are eliminated, the components contracted and f
    introduced again."""
    goal = p.conclusion.remove_one(f, side)
    if isinstance(f, Atom):
        return P.structural(R.CONTRACTION[side], [p], goal)
    row = R.ROWS.get((type(f), side))
    if row is None:
        return P.axiom(goal, side)
    if row.branches == ((),):
        return P.elim(row, p, f, 0)
    branches = enumerate(row.branches)

    def prove(_: Sequent) -> Proof:
        i, branch = next(branches)
        q = P.elim(row, P.elim(row, p, f, i), f, i)
        for comp_side, attr in branch:
            q = contract_by(q, getattr(f, attr), comp_side)
        return q

    return P.intro(row, goal, f, prove)


def identity_proof(f: Formula) -> Proof:
    """f |- f with f introduced on the left below f on the right (the other
    way round when the left closes by axiom); each leaf is the identity on
    the component both sides share, weakened by the rest."""
    goal = Sequent([f], [f])
    if isinstance(f, Atom):
        return P.structural("identity", [], goal)
    outer, inner = ("left", "right") if (type(f), "left") in R.ROWS else ("right", "left")
    return _introduce(goal, f, outer, lambda s: _introduce(s, f, inner, _identity_leaf))


def _introduce(goal: Sequent, f: Formula, side: str, prove: Callable[[Sequent], Proof]) -> Proof:
    row = R.ROWS.get((type(f), side))
    if row is None:
        return P.axiom(goal, side)
    return P.intro(row, goal, f, prove)


def _identity_leaf(s: Sequent) -> Proof:
    shared = next(g for g in s.left if g in s.right)
    return _weaken_multiset(identity_proof(shared), s)


def _contract_multiset(p: Proof, target: Sequent) -> Proof:
    """Expansion-aware contraction of arbitrary formulas down to target."""
    cur = p
    while True:
        extra_left = P._multiset_diff(cur.conclusion.left, target.left)
        extra_right = P._multiset_diff(cur.conclusion.right, target.right)
        if not extra_left and not extra_right:
            break
        if extra_left:
            cur = contract_by(cur, extra_left[0], "left")
        else:
            cur = contract_by(cur, extra_right[0], "right")
    assert cur.conclusion == target
    return cur


def cut_on(p1: Proof, p2: Proof, f: Formula) -> Proof:
    """Cut p1: G |- D, f against p2: f, G' |- D', atomizing the cut formula.

    The occurrence whose decomposition does not branch is eliminated once;
    each branch of the other occurrence is then cut against the running
    proof on its component. A constant closes one side by axiom, and the
    other side's elimination is weakened to the conclusion.
    """
    left = p1.conclusion.remove_one(f, "right")
    right = p2.conclusion.remove_one(f, "left")
    goal = Sequent(left.left + right.left, left.right + right.right)
    if isinstance(f, Atom):
        return P.structural("cut", [p1, p2], goal)
    occurrences = [(R.ROWS.get((type(f), side)), p) for side, p in (("right", p1), ("left", p2))]
    (row, p), *others = sorted(((r, p) for r, p in occurrences if r), key=lambda o: len(o[0].branches))
    q = P.elim(row, p, f, 0)
    if not others:
        return _weaken_multiset(q, goal)
    ((row, p),) = others
    for i, ((comp_side, attr),) in enumerate(row.branches):
        b = P.elim(row, p, f, i)
        comp = getattr(f, attr)
        q = cut_on(b, q, comp) if comp_side == "right" else cut_on(q, b, comp)
    return _contract_multiset(q, goal)


def _weaken_multiset(p: Proof, target: Sequent) -> Proof:
    cur = p
    for f in P._multiset_diff(target.left, cur.conclusion.left):
        cur = weaken_by(cur, f, "left")
    for f in P._multiset_diff(target.right, cur.conclusion.right):
        cur = weaken_by(cur, f, "right")
    assert cur.conclusion == target, (cur.conclusion.render(), target.render())
    return cur


# ---------------------------------------------------------------------------
# expand_structural
# ---------------------------------------------------------------------------


def _node_is_atomic(node: Proof) -> bool:
    return node.conclusion.is_atomic() and all(c.conclusion.is_atomic() for c in node.children)


Matches = dict[int, R.StructuralMatch]
Table = dict[Sequent, Proof]
# the rules whose steps on a compound formula the expansion builders replace
_PRINCIPAL_RULES = R.COMMON_NAMES | {"identity", "cut"}


def expand_structural(
    p: Proof, calc: R.Calculus, trace: Optional[RewriteTrace] = None, matches: Optional[Matches] = None
) -> Proof:
    """The three-phase form of p: eliminations from the premises, atomic
    structural steps, introductions down to the conclusion.

    A first pass replaces each step of a common rule, Identity or Cut whose
    principal formula is compound by logical rules around steps on its
    components. A fold then maps each node to its At-leaf table, and the
    root's table supplies the leaves of one introduction tree.

    ``matches`` maps the id of structural nodes of p to their matches (as
    ``proofs._check_matches`` returns them); every other structural node
    that needs its match is matched here. The dict is extended in place.
    """
    matches = {} if matches is None else matches
    step1 = P.rebuild(p, lambda node, kids: _expand_principal(node, kids, calc, trace, matches))
    return _three_phase(step1, calc, trace, matches)


def make_analytic_synthetic(p: Proof) -> Proof:
    """The three-phase form of a structurally atomic proof, by the fold
    ``expand_structural`` ends with: every structural node is atomic, so
    no calculus is consulted."""
    if not P.is_structurally_atomic(p):
        raise RewriteError("make_analytic_synthetic requires a structurally atomic proof")
    return _three_phase(p, None, None, {})


def _three_phase(p: Proof, calc: Optional[R.Calculus], trace: Optional[RewriteTrace], matches: Matches) -> Proof:
    """Each node of p folded into its At-leaf table; the root's table
    supplies the leaves of one introduction tree for p's conclusion.
    ``calc`` may be None when every structural node of p is atomic."""
    tables = P.rebuild(p, lambda node, kids: _at_leaves(node, kids, calc, trace, matches))
    return P.build_intro(p.conclusion, tables.__getitem__)


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


def _expand_principal(
    node: Proof, kids: tuple[Proof, ...], calc: R.Calculus, trace: Optional[RewriteTrace], matches: Matches
) -> Proof:
    """node over its rewritten children, a step of a common rule, Identity
    or Cut on a compound formula replaced by the expansion builders."""
    if all(map(operator.is_, kids, node.children)):
        cur = node
    else:
        cur = Proof(node.conclusion, node.rule, kids, node.premise_index)
    if not P.is_structural(cur.rule):
        return cur
    m = _structural_match(node, calc, matches)
    values = m.atom_assignment
    if all(isinstance(v, Atom) for v in values.values()) or cur.rule not in _PRINCIPAL_RULES:
        # any other rule (a bounded calculus's own) on a compound formula is
        # expanded with its context by the fold's sandwich
        matches[id(cur)] = m  # cur stays in the pass's output, so its id stays its own
        return cur
    if trace is not None:
        trace.record("expand-principal", cur.conclusion.render(), cur.rule)
    if cur.rule == "identity":
        (f,) = values.values()
        return identity_proof(f)
    if cur.rule == "cut":
        return cut_on(cur.children[0], cur.children[1], values["x"])
    (f,) = values.values()
    build = weaken_by if cur.rule in R.WEAKENING_NAMES else contract_by
    return build(cur.children[0], f, R.COMMON_SIDE[cur.rule])


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
    if _node_is_atomic(node):
        leaves = tuple(t[c.conclusion] for t, c in zip(kids, node.children))
        if not all(map(operator.is_, leaves, node.children)):
            node = Proof(node.conclusion, node.rule, leaves)
        return {node.conclusion: node}
    m = _structural_match(node, calc, matches)
    if trace is not None:
        compound = not all(isinstance(v, Atom) for v in m.atom_assignment.values())
        trace.record("expand-principal" if compound else "atomize-context", node.conclusion.render(), node.rule)
    return _sandwich(node, calc, m, kids)


def _slot_side(rule: R.StructuralRule, slot: str) -> str:
    for schema in list(rule.premises) + [rule.conclusion]:
        if slot in schema.slots_left:
            return "left"
        if slot in schema.slots_right:
            return "right"
    raise AssertionError(slot)


def _sandwich(node: Proof, calc: R.Calculus, m: R.StructuralMatch, tables: tuple[Table, ...]) -> Table:
    """The At-leaf table of a structural step: atomic instances of its
    expansion, each child taken from the table of the step's premise it
    comes from.

    The step is expanded over the linear form of its atom assignment, each
    atom occurrence a fresh ``x<i>`` in leaf order, as ``rules.expansion``
    writes the images it names the step by; every fresh atom is mapped back
    to its atom in the instances.
    """
    rule = calc.rule(node.rule)
    back: dict[str, Atom] = {}

    def fresh(a: Atom) -> Atom:
        name = f"x{len(back)}"
        back[name] = a
        return Atom(name)

    step = R.expansion(rule, tuple(map_atoms(m.atom_assignment[a], fresh) for a in rule.schema_atoms()))
    if step is None:
        raise InexpandableNode(f"the expansion of {node.rule} on this instance has several conclusions")

    slot_branches: dict[str, list[Sequent]] = {}
    for slot in rule.slot_names():
        content = m.slot_assignment.get(slot, ())
        if _slot_side(rule, slot) == "left":
            branches = R.at_set(Sequent(content, ()))
        else:
            branches = R.at_set(Sequent((), content))
        slot_branches[slot] = sorted(branches, key=sequent_key)

    supply: Table = {}
    slots_sorted = sorted(rule.slot_names())

    def instantiate(schema: R.SequentSchema, bc: dict[str, Sequent]) -> Sequent:
        # the expansion's schema atoms are the fresh atoms of its images
        left = [back[a] for a in schema.atoms_left]
        right = [back[a] for a in schema.atoms_right]
        for s in schema.slots_left + schema.slots_right:
            left.extend(bc[s].left)
            right.extend(bc[s].right)
        return Sequent(left, right)

    for combo in itertools.product(*(slot_branches[s] for s in slots_sorted)):
        bc = dict(zip(slots_sorted, combo))
        member = instantiate(step.conclusion, bc)
        if member in supply:
            continue
        children = [tables[j][instantiate(schema, bc)] for j, schema in zip(step.sources, step.premises)]
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
    # constant-only corner: rebuild from scratch
    leaves = R.at_set(conclusion)
    if not leaves:
        return P.build_intro(conclusion, _no_supply)
    assert leaves == frozenset((Sequent(),)), leaves
    for i, s in enumerate(premises):
        if Sequent() in R.at_set(s):
            chain = P.elim_targets(P.premise(s, i))[Sequent()]
            return P.build_intro(conclusion, lambda leaf: P.weaken_to(chain, leaf))
    raise RewriteError("conclusion requires the empty sequent but no premise yields it")


def _no_supply(leaf: Sequent) -> Proof:
    raise RewriteError(f"unexpected atomic goal {leaf.render()} in constant-only rebuild")


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
        ident = P.structural("identity", [], Sequent([a], [a]))
        return P.weaken_to(ident, leaf)

    return P.build_intro(p.conclusion, supply)


# ---------------------------------------------------------------------------
# Refutation reshaping
# ---------------------------------------------------------------------------

_REFUTATION_RULES = frozenset({"identity", "cut"}) | R.COMMON_NAMES


def simplify_refutation(p: Proof) -> Proof:
    """Reshape an atomic Identity/Cut/Weakening/Contraction refutation into
    contractions followed by cuts, per branch."""
    if not p.conclusion.is_empty():
        raise RewriteError("simplify_refutation expects a proof of the empty sequent")
    if not P.is_structurally_atomic(p):
        raise RewriteError("simplify_refutation expects a structurally atomic proof")
    for node in p.nodes():
        if node.rule != "premise" and node.rule not in _REFUTATION_RULES:
            raise RewriteError(f"unexpected rule in refutation: {node.rule}")
        if node.rule == "premise" and not node.conclusion.is_atomic():
            raise RewriteError("refutation premises must be atomic")
    p = _remove_weakenings(p)
    p = _drop_identity_cuts(p)
    p = _raise_contractions(p)
    _assert_contraction_then_cut(p)
    return p


def _find_nodes(p: Proof, pred) -> list[P.Path]:
    return [path for path, node in p.walk() if pred(node)]


def _cut_atom(node: Proof) -> tuple[Atom, Proof, Proof]:
    m = R.match_structural(R.CUT, [c.conclusion for c in node.children], node.conclusion)
    assert m is not None
    return m.atom_assignment["x"], node.children[0], node.children[1]


def _weakened_formula(node: Proof) -> tuple[Formula, str]:
    child = node.children[0]
    side = R.COMMON_SIDE[node.rule]
    diff = P._multiset_diff(getattr(node.conclusion, side), getattr(child.conclusion, side))
    return diff[0], side


def _remove_weakenings(p: Proof) -> Proof:
    while True:
        paths = _find_nodes(p, lambda n: n.rule in R.WEAKENING_NAMES)
        if not paths:
            return p
        path = min(paths, key=len)
        assert path, "weakening cannot conclude the empty sequent"
        wnode = p.node_at(path)
        parent_path, idx = path[:-1], path[-1]
        parent = p.node_at(parent_path)
        w, wside = _weakened_formula(wnode)
        inner = wnode.children[0]
        if parent.rule == "cut":
            x, c1, c2 = _cut_atom(parent)
            consuming = (idx == 0 and wside == "right") or (idx == 1 and wside == "left")
            if w == x and consuming:
                repl = P.weaken_to(inner, parent.conclusion)
            else:
                others = list(parent.children)
                others[idx] = inner
                small = parent.conclusion.remove_one(w, wside)
                cut2 = P.structural("cut", others, small)
                repl = P.structural(R.WEAKENING[wside], [cut2], parent.conclusion)
            p = p.replace_at(parent_path, repl)
            continue
        if parent.rule in R.CONTRACTION_NAMES:
            cside = R.COMMON_SIDE[parent.rule]
            y = P._multiset_diff(getattr(wnode.conclusion, cside), getattr(parent.conclusion, cside))[0]
            if w == y and wside == cside:
                repl = inner
            else:
                contracted = parent.conclusion.remove_one(w, wside)
                c2 = P.structural(parent.rule, [inner], contracted)
                repl = P.structural(R.WEAKENING[wside], [c2], parent.conclusion)
            p = p.replace_at(parent_path, repl)
            continue
        raise RewriteError(f"weakening feeds unexpected rule {parent.rule}")


def _drop_identity_cuts(p: Proof) -> Proof:
    while True:
        paths = _find_nodes(
            p, lambda n: n.rule == "cut" and any(c.rule == "identity" for c in n.children)
        )
        if not paths:
            for node in p.nodes():
                if node.rule == "identity":
                    raise RewriteError("identity node not consumed by a cut")
            return p
        path = paths[0]
        node = p.node_at(path)
        other = node.children[1] if node.children[0].rule == "identity" else node.children[0]
        assert other.conclusion == node.conclusion, "identity-fed cut must be redundant"
        p = p.replace_at(path, other)


def _raise_contractions(p: Proof) -> Proof:
    while True:
        paths = _find_nodes(
            p,
            lambda n: n.rule in R.CONTRACTION_NAMES and n.children[0].rule == "cut",
        )
        if not paths:
            return p
        path = paths[0]
        node = p.node_at(path)
        cutnode = node.children[0]
        x, c1, c2 = _cut_atom(cutnode)
        cside = R.COMMON_SIDE[node.rule]
        y = P._multiset_diff(getattr(cutnode.conclusion, cside), getattr(node.conclusion, cside))[0]
        # contracting inside a premise is possible whenever it holds the pair;
        # the cut consumes at most one occurrence, which a pair survives
        count1 = getattr(c1.conclusion, cside).count(y)
        count2 = getattr(c2.conclusion, cside).count(y)
        if count1 >= 2:
            c1b = P.structural(node.rule, [c1], c1.conclusion.remove_one(y, cside))
            repl = P.structural("cut", [c1b, c2], node.conclusion)
        elif count2 >= 2:
            c2b = P.structural(node.rule, [c2], c2.conclusion.remove_one(y, cside))
            repl = P.structural("cut", [c1, c2b], node.conclusion)
        else:
            raise RefutationShapeError(
                "contraction merges occurrences from both cut premises; "
                "no contraction-then-cut reshaping exists for this proof"
            )
        p = p.replace_at(path, repl)


def _assert_contraction_then_cut(p: Proof) -> None:
    # branch order leaf-to-root must be contractions first, cuts second
    for node, below in P.nodes_under(p, lambda n: n.rule in R.CONTRACTION_NAMES):
        if below and node.rule == "cut":
            raise RefutationShapeError("cut above a contraction survived reshaping")


# ---------------------------------------------------------------------------
# Identity/Cut separation
# ---------------------------------------------------------------------------


def separate_identity_cut(p: Proof) -> Proof:
    """Rewrite a normalized GCL proof so no branch contains both Identity and Cut."""
    if not (P.is_structurally_atomic(p) and P.is_analytic_synthetic(p)):
        raise RewriteError("separate_identity_cut requires a normalized proof")
    while True:
        target = _find_identity_cut(p)
        if target is None:
            _assert_separated(p)
            return p
        path, idx, ident_atom = target
        node = p.node_at(path)
        x, c1, c2 = _cut_atom(node)
        chain = node.children[idx]
        other = node.children[1 - idx]
        if x == ident_atom:
            repl = P.weaken_to(other, node.conclusion)
        else:
            ident = P.structural("identity", [], Sequent([ident_atom], [ident_atom]))
            repl = P.weaken_to(ident, node.conclusion)
        p = p.replace_at(path, repl)


def _identity_chain_atom(node: Proof) -> Optional[Atom]:
    """The identity atom when the subtree is Identity under weakenings and
    contractions only."""
    while node.rule in R.COMMON_NAMES:
        node = node.children[0]
    if node.rule == "identity":
        return node.conclusion.left[0]  # type: ignore[return-value]
    return None


def _find_identity_cut(p: Proof) -> Optional[tuple[P.Path, int, Atom]]:
    for path, node in p.walk():
        if node.rule != "cut":
            continue
        for idx, child in enumerate(node.children):
            atom = _identity_chain_atom(child)
            if atom is not None:
                return path, idx, atom
    return None


def _assert_separated(p: Proof) -> None:
    for node, below in P.nodes_under(p, lambda n: n.rule == "cut"):
        if below and node.rule == "identity":
            raise RewriteError("identity above a cut survived separation")
