"""Proof trees, the proof checker, shape predicates and tree builders."""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import rules as R
from .syntax import (
    Bot,
    Formula,
    ParseError,
    Sequent,
    SupercutError,
    Top,
    Value,
    _parse_sequent,
    fold,
    multiset_minus,
    subformulas,
)

Path = tuple[int, ...]


class Proof(Value):
    """A finite labeled proof tree.

    ``rule`` is one of: "premise", the axioms "top-right"/"bot-left", a
    logical rule id, or a structural rule name. Instantiations are not
    stored; the checker re-infers them.

    Equality is one fold over both proofs' distinct nodes, and the hash is
    taken over the fields. Neither recurses, nor does repr, so a proof of
    any depth has them. A node stores its hash once computed, outside
    ``_fields``: out of repr and pickles.
    """

    __slots__ = ("conclusion", "rule", "children", "premise_index", "_hash")
    _fields = ("conclusion", "rule", "children", "premise_index")

    def __init__(
        self, conclusion: Sequent, rule: str, children: tuple[Proof, ...] = (), premise_index: Optional[int] = None
    ):
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_children(self, children)
        _set_premise_index(self, premise_index)
        _set_hash(self, None)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        ids: dict[tuple, int] = {}  # one id per distinct node of either proof

        def node_id(node: Proof, kids: tuple[int, ...]) -> int:
            return ids.setdefault((node.conclusion, node.rule, kids, node.premise_index), len(ids))

        return rebuild(self, node_id) == rebuild(other, node_id)

    def __hash__(self) -> int:
        if self._hash is None:  # children first, down to the nodes hashed before
            fold(self, lambda node: node.children if node._hash is None else (), _hashed)
        return self._hash

    def nodes(self) -> Iterator["Proof"]:
        """Each distinct node once, in pre-order of the proof read as a
        tree; a subproof shared by several parents is not walked again."""
        return (node for node, _ in nodes_under(self, lambda node: False))

    def premise_leaves(self) -> frozenset[Sequent]:
        return frozenset(n.conclusion for n in self.nodes() if n.rule == "premise")

    def size(self) -> int:
        """Node count of the proof read as a tree, in time linear in its
        distinct nodes."""
        return rebuild(self, lambda _, sizes: 1 + sum(sizes))


_set_conclusion = Proof.conclusion.__set__
_set_rule = Proof.rule.__set__
_set_children = Proof.children.__set__
_set_premise_index = Proof.premise_index.__set__
_set_hash = Proof._hash.__set__


def _hashed(node: Proof, kids: tuple[int, ...]) -> int:
    """node's hash, taken over its fields with its children's hashes."""
    if node._hash is None:
        _set_hash(node, hash((node.conclusion, node.rule, kids, node.premise_index)))
    return node._hash


T = TypeVar("T")
_children = operator.attrgetter("children")


def rebuild(p: Proof, step: Callable[[Proof, tuple[T, ...]], T]) -> T:
    """``syntax.fold`` over the distinct nodes of p and their children:
    ``step(node, new_kids)`` gets the results for node's children and
    returns node's result, so a shared subproof maps to one shared result."""
    return fold(p, _children, step)


def is_logical(rule: str) -> bool:
    return rule in R.LOGICAL


def is_intro(rule: str) -> bool:
    return rule in R.INTRO_RULES


def is_elim(rule: str) -> bool:
    return rule in R.ELIM_RULES


def is_axiom(rule: str) -> bool:
    return rule in R.AXIOM_RULES


def is_structural(rule: str) -> bool:
    return not (is_logical(rule) or is_axiom(rule) or rule == "premise")


def premise(s: Sequent, index: Optional[int] = None) -> Proof:
    return Proof(s, "premise", (), index)


def axiom(s: Sequent, side: str) -> Proof:
    """Close s by a top on the right or a bottom on the left."""
    assert any(isinstance(f, Top if side == "right" else Bot) for f in getattr(s, side)), (s, side)
    return Proof(s, R.AXIOMS[side])


def logical(rule: str, children: Sequence[Proof], conclusion: Sequent) -> Proof:
    """A logical step named by its rule, for proofs built by hand: the step
    is re-matched against the rule, children taken in either branch order."""
    m = R.match_logical(rule, [c.conclusion for c in children], conclusion)
    assert m is not None, (rule, [str(c.conclusion) for c in children], str(conclusion))
    return Proof(conclusion, rule, tuple(children))


def _introduced(row: R.Decomposition, goal: Sequent, targets: list[Sequent], kids: list[Proof]) -> Proof:
    """The introduction concluding goal whose children conclude ``targets``,
    the split of goal by row, in branch order."""
    for kid, target in zip(kids, targets):
        assert kid.conclusion == target, (row.intro, kid.conclusion.render(), target.render())
    return Proof(goal, row.intro, tuple(kids))


def elim(row: R.Decomposition, p: Proof, f: Formula, i: int) -> Proof:
    """The elimination of f on ``row.side`` from p's conclusion, taking
    branch i."""
    return Proof(row.branch(p.conclusion, f, i), row.elim, (p,))


def structural(rule_name: str, children: Sequence[Proof], conclusion: Sequent) -> Proof:
    return Proof(conclusion, rule_name, tuple(children))


def with_children(node: Proof, kids: Sequence[Proof], conclusion: Optional[Sequent] = None) -> Proof:
    """node's step over kids, concluding ``conclusion`` (node's own by
    default); node itself when kids are its children."""
    if all(map(operator.is_, kids, node.children)):
        return node
    return Proof(node.conclusion if conclusion is None else conclusion, node.rule, tuple(kids), node.premise_index)


def common_formula(node: Proof) -> tuple[Formula, str]:
    """The formula a Weakening step adds, or a Contraction step merges two
    copies of, and the side it is on."""
    side = R.COMMON_SIDE[node.rule]
    more, fewer = node.conclusion, node.children[0].conclusion
    if node.rule in R.CONTRACTION.values():
        more, fewer = fewer, more
    return multiset_minus(getattr(more, side), getattr(fewer, side))[0], side


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class CheckResult(Value):
    __slots__ = _fields = ("ok", "path", "reason")

    def __init__(self, ok: bool, path: Optional[Path] = None, reason: Optional[str] = None):
        super().__init__(ok, path, reason)

    def __bool__(self) -> bool:
        return self.ok


OK = CheckResult(True)


def check(p: Proof, calc: R.Calculus, declared_premises: Sequence[Sequent] = ()) -> CheckResult:
    """Re-match every node against the calculus; first failure wins,
    reported in leftmost-innermost order.

    A subproof shared by several parents is checked once: nodes found sound
    are remembered, and the first failure ends the check.
    """
    return _check_matches(p, calc, declared_premises)[0]


def _check_matches(
    p: Proof, calc: R.Calculus, declared_premises: Sequence[Sequent] = ()
) -> tuple[CheckResult, dict[int, R.StructuralMatch]]:
    """``check``, also returning the match of each structural node found
    sound, keyed by the node's id; the ids stay valid while p is alive."""
    declared = list(declared_premises)
    sound: set[int] = set()
    matches: dict[int, R.StructuralMatch] = {}
    # the open branch: [node, its index under the node before it, the index
    # of its next child to visit]; children before that one are sound
    todo: list[list] = [[p, 0, 0]]
    while todo:
        frame = todo[-1]
        node, _, i = frame
        children = node.children
        while i < len(children) and id(children[i]) in sound:
            i += 1
        if i < len(children):
            frame[2] = i + 1
            todo.append([children[i], i, 0])
            continue
        reason = _fault(node, declared, calc, matches)
        if reason is not None:
            return CheckResult(False, tuple(f[1] for f in todo[1:]), reason), matches
        sound.add(id(node))
        todo.pop()
    return OK, matches


def _fault(
    node: Proof,
    declared: list[Sequent],
    calc: R.Calculus,
    matches: dict[int, R.StructuralMatch],
) -> Optional[str]:
    """Why node is not a sound step from its children, or None; a sound
    structural node's match goes into ``matches``."""
    rule = node.rule
    if rule == "premise":
        if node.children:
            return "premise node with children"
        if node.premise_index is not None:
            if not (0 <= node.premise_index < len(declared)):
                return "premise index out of range"
            if declared[node.premise_index] != node.conclusion:
                return "premise does not match declared sequent"
        elif node.conclusion not in declared:
            return "sequent is not a declared premise"
        return None
    if rule == "top-right":
        if node.children:
            return "axiom with children"
        if not any(isinstance(f, Top) for f in node.conclusion.right):
            return "no top on the right"
        return None
    if rule == "bot-left":
        if node.children:
            return "axiom with children"
        if not any(isinstance(f, Bot) for f in node.conclusion.left):
            return "no bottom on the left"
        return None
    prems = [c.conclusion for c in node.children]
    if is_logical(rule):
        arity = R.LOGICAL[rule].arity
        if len(prems) != arity:
            return f"arity: {rule} expects {arity} premises"
        if R.match_logical(rule, prems, node.conclusion) is None:
            return f"not an instance of {rule}"
        return None
    schema = calc.rule(rule)
    if schema is None:
        return f"rule not in calculus: {rule}"
    if len(prems) != len(schema.premises):
        return f"arity: {rule} expects {len(schema.premises)} premises"
    m = R.match_structural(schema, prems, node.conclusion)
    if m is None:
        return f"not an instance of {rule}"
    matches[id(node)] = m
    return None


# ---------------------------------------------------------------------------
# Shape predicates
# ---------------------------------------------------------------------------


def is_atomic_step(node: Proof) -> bool:
    """node's conclusion and its children's are atomic sequents."""
    return node.conclusion.is_atomic() and all(c.conclusion.is_atomic() for c in node.children)


def is_structurally_atomic(p: Proof) -> bool:
    """Premises and conclusions of all structural nodes are atomic sequents."""
    return all(is_atomic_step(node) for node in p.nodes() if is_structural(node.rule))


def nodes_under(p: Proof, marks: Callable[[Proof], bool]) -> Iterator[tuple[Proof, bool]]:
    """Each distinct (node, below) pair once, where ``below`` says whether
    some node strictly below it on a branch, toward the root, satisfies
    ``marks``."""
    seen: set[tuple[int, bool]] = set()
    todo = [(p, False)]
    while todo:
        node, below = todo.pop()
        if (id(node), below) not in seen:
            seen.add((id(node), below))
            yield node, below
            below = below or marks(node)
            todo.extend((c, below) for c in reversed(node.children))


def is_analytic_synthetic(p: Proof) -> bool:
    """On every branch all eliminations precede (sit above) all introductions."""
    return not any(
        below and is_intro(node.rule) for node, below in nodes_under(p, lambda n: is_elim(n.rule))
    )


def has_subformula_property(p: Proof, declared_premises: Iterable[Sequent] = ()) -> bool:
    universe: set[Formula] = set()
    for s in list(declared_premises) + [p.conclusion]:
        for f in s.left + s.right:
            universe |= subformulas(f)
    for node in p.nodes():
        for f in node.conclusion.left + node.conclusion.right:
            if f not in universe:
                return False
    return True


def _zone(rule: str) -> int:
    """0 for an elimination, 1 for a structural rule, 2 for an
    introduction, -1 for a premise or an axiom."""
    return 0 if is_elim(rule) else 2 if is_intro(rule) else 1 if is_structural(rule) else -1


def phase_split(p: Proof) -> tuple[tuple[Proof, ...], tuple[Proof, ...], tuple[Proof, ...]]:
    """Partition the distinct rule nodes into elimination, structural and
    introduction zones, each in ``Proof.nodes()`` order.

    Requires a structurally atomic analytic-synthetic proof; the tripartite
    branch shape is asserted.
    """
    if not (is_structurally_atomic(p) and is_analytic_synthetic(p)):
        raise SupercutError("phase_split requires a structurally atomic analytic-synthetic proof")
    zones: tuple[list[Proof], ...] = ([], [], [])
    for node in p.nodes():
        z = _zone(node.rule)
        if z >= 0:
            zones[z].append(node)
    # zones must not increase toward the leaves: no node above an
    # elimination is in a later zone, nor one above a structural step
    for zone in (0, 1):
        under = nodes_under(p, lambda n, zone=zone: _zone(n.rule) == zone)
        assert not any(below and _zone(node.rule) > zone for node, below in under), (
            "branch violates elim/structural/intro ordering")
    return tuple(zones[0]), tuple(zones[1]), tuple(zones[2])


# ---------------------------------------------------------------------------
# Tree builders
# ---------------------------------------------------------------------------


def weaken_to(p: Proof, target: Sequent) -> Proof:
    """Chain of weakenings from p.conclusion up to the target multiset."""
    for side in ("left", "right"):
        missing = multiset_minus(getattr(target, side), getattr(p.conclusion, side))
        assert missing is not None, (p.conclusion.render(), target.render())
        for f in missing:
            p = structural(R.WEAKENING[side], [p], p.conclusion.add(**{side: [f]}))
    return p


def contract_to(p: Proof, target: Sequent) -> Proof:
    """Chain of contractions from p.conclusion down to the target multiset."""
    for side in ("left", "right"):
        for f in multiset_minus(getattr(p.conclusion, side), getattr(target, side)) or ():
            p = structural(R.CONTRACTION[side], [p], p.conclusion.remove_one(f, side))
    assert p.conclusion == target, (p.conclusion.render(), target.render())
    return p


def elim_targets(base: Proof) -> dict[Sequent, Proof]:
    """Elimination chains from a proof to every member of its At-set.

    Mirrors the At-set walk; keys are exactly at_set(base.conclusion), and
    on a key two branches share, the first branch's chain wins. The chains
    grow from an explicit stack, so a deep conclusion does not recurse.
    """
    out: dict[Sequent, Proof] = {}
    todo = [base]
    while todo:
        p = todo.pop()
        if R.axiom_side(p.conclusion):
            continue
        cands = R.decomposition_candidates(p.conclusion)
        if not cands:
            out.setdefault(p.conclusion, p)
            continue
        side, f = cands[0]
        row = R.ROWS[type(f), side]
        todo.extend(elim(row, p, f, i) for i in reversed(range(len(row.branches))))
    return out


class LeafUnavailable(SupercutError):
    pass


def _closes(side: str, f: Formula) -> bool:
    """Every branch of decomposing f on side gains a top on the right or a
    bottom on the left."""
    return all(
        any(isinstance(getattr(f, attr), Top if to == "right" else Bot) for to, attr in branch)
        for branch in R.ROWS[type(f), side].branches
    )


def build_intro(goal: Sequent, supply: Callable[[Sequent], Proof]) -> Proof:
    """Introduction tree for the goal; atomic branch leaves come from supply,
    asked for left to right.

    Each goal decomposes its first compound formula, unless decomposing
    another closes every branch by an axiom at once; such a goal has no
    At-set, so the leaves asked for are the same. Branches reaching a top
    on the right or a bottom on the left close with the corresponding
    axiom. The tree grows from an explicit stack of open introductions, so
    a deep goal does not recurse.
    """
    # (row, goal, its branch sequents, the children built so far)
    pending: list[tuple[R.Decomposition, Sequent, list[Sequent], list[Proof]]] = []
    while True:
        side = R.axiom_side(goal)
        if side:
            proof = axiom(goal, side)
        elif cands := R.decomposition_candidates(goal):
            side, f = next((c for c in cands if _closes(*c)), cands[0])
            row = R.ROWS[type(f), side]
            targets = row.split(goal, f)
            pending.append((row, goal, targets, []))
            goal = targets[0]
            continue
        else:
            proof = supply(goal)
        # the proof is the next child of the innermost open introduction;
        # each introduction it completes closes in turn
        while pending:
            row, below, targets, kids = pending[-1]
            kids.append(proof)
            if len(kids) < len(targets):
                goal = targets[len(kids)]
                break
            pending.pop()
            proof = _introduced(row, below, targets, kids)
        else:
            return proof


def intro_derive(c: Sequent, available: Iterable[Sequent]) -> Optional[Proof]:
    """Introduction-only derivation of c whose leaves lie in ``available``
    (or close by constant axioms); None when some leaf is unavailable."""
    have = set(available)
    assert all(s.is_atomic() for s in have), "available sequents must be atomic"

    def supply(leaf: Sequent) -> Proof:
        if leaf in have:
            return premise(leaf)
        raise LeafUnavailable(leaf.render())

    try:
        return build_intro(c, supply)
    except LeafUnavailable:
        return None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def proof_to_dict(p: Proof) -> dict:
    """The proof read as a tree, as nested JSON-ready dicts."""
    root: dict = {}
    todo = [(p, root)]
    while todo:
        node, out = todo.pop()
        out["sequent"] = node.conclusion.render()
        out["rule"] = node.rule
        if node.children:
            kids: list[dict] = [{} for _ in node.children]
            out["children"] = kids
            todo.extend(zip(reversed(node.children), reversed(kids)))
        if node.premise_index is not None:
            out["premise_index"] = node.premise_index
    return root


_END = object()  # what next() returns past the last child


def _check_node(d) -> None:
    if not (
        isinstance(d, dict)
        and isinstance(d.get("sequent"), str)
        and isinstance(d.get("rule"), str)
        and isinstance(d.get("children", []), list)
        and type(d.get("premise_index", 0)) is int
    ):
        raise ParseError(
            "malformed proof node",
            0,
            'an object with string "sequent" and "rule", optional list "children", optional int "premise_index"',
        )


def proof_from_dict(d: dict) -> Proof:
    """Inverse of proof_to_dict; raises ParseError on a malformed node.

    Nodes are checked parent first and their sequents parsed children
    first, so the first fault in that order is the one reported. Equal
    subtrees read as one shared node, and equal sequent texts as one
    sequent, so a pass over the proof's distinct nodes does each once.
    """
    _check_node(d)
    parsed: dict[str, Formula] = {}  # formula texts of this proof, each parsed once
    sequents: dict[str, Sequent] = {}  # by text
    made: dict[tuple, Proof] = {}  # by sequent text, rule, premise index and the children's ids
    on_path = {id(d)}
    stack: list = [(d, iter(d.get("children", ())), [])]
    while True:
        node, rest, kids = stack[-1]
        child = next(rest, _END)
        if child is not _END:
            _check_node(child)
            if id(child) in on_path:
                raise ParseError("proof node contains itself", 0, "a tree of proof nodes")
            on_path.add(id(child))
            stack.append((child, iter(child.get("children", ())), []))
            continue
        stack.pop()
        on_path.discard(id(node))
        text, rule, index = node["sequent"], node["rule"], node.get("premise_index")
        key = (text, rule, index, *map(id, kids))
        proof = made.get(key)
        if proof is None:
            s = sequents.get(text)
            if s is None:
                s = sequents[text] = _parse_sequent(text, parsed)
            proof = made[key] = Proof(s, rule, tuple(kids), index)
        if not stack:
            return proof
        stack[-1][2].append(proof)


def proof_to_dot(p: Proof) -> str:
    """Graphviz DOT of the proof's distinct nodes, numbered in
    ``Proof.nodes()`` order, with an edge from each child of a node to it."""
    lines = ["digraph proof {", "  node [shape=box, fontname=monospace];"]
    ids: dict[int, int] = {}
    for nid, node in enumerate(p.nodes()):
        ids[id(node)] = nid
        label = node.conclusion.render().replace('"', '\\"')
        if not node.children:
            label += f"\\n[{node.rule}]"
        lines.append(f'  n{nid} [label="{label}"];')

    def edges(node: Proof, _) -> None:
        rl = node.rule.replace('"', '\\"')
        lines.extend(f'  n{ids[id(c)]} -> n{ids[id(node)]} [label="{rl}"];' for c in node.children)

    rebuild(p, edges)
    lines.append("}")
    return "\n".join(lines)
