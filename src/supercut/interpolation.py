"""Interpolant extraction from normalized proofs, Milne's split, and the
oracle-backed verifier for interpolation claims."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

from . import engine as E
from . import matrices as M
from . import proofs as P
from . import rewrite as RW
from . import rules as R
from .proofs import Proof
from .syntax import (
    Atom,
    Formula,
    Neg,
    Sequent,
    SupercutError,
    Value,
    atoms_of,
    rho,
    sequent_key,
    set_to_formula,
)


class InterpolationError(SupercutError):
    pass


class EntailmentError(InterpolationError):
    pass


class InterpolationResult(Value):
    """``left_certificates`` holds one Proof per interpolant sequent and
    ``right_certificate`` a Proof; the lp route has ("oracle",) and "oracle"."""

    __slots__ = _fields = ("interpolant_sequents", "interpolant_formula", "left_logic", "right_logic",
                           "left_certificates", "right_certificate", "verified")

    def __init__(self, interpolant_sequents: tuple[Sequent, ...], interpolant_formula: Formula, left_logic: str,
                 right_logic: str, left_certificates: tuple, right_certificate: object, verified: bool):
        object.__setattr__(self, "interpolant_sequents", interpolant_sequents)
        object.__setattr__(self, "interpolant_formula", interpolant_formula)
        object.__setattr__(self, "left_logic", left_logic)
        object.__setattr__(self, "right_logic", right_logic)
        object.__setattr__(self, "left_certificates", left_certificates)
        object.__setattr__(self, "right_certificate", right_certificate)
        object.__setattr__(self, "verified", verified)


CALC_TO_LOGIC = {"gb": "b", "glp": "lp", "gk": "k", "getl": "etl", "gecq": "ecq", "gcl": "cl"}


# ---------------------------------------------------------------------------
# Critical nodes and the separating set
# ---------------------------------------------------------------------------


def _replace_critical_nodes(p: Proof, replace: Callable[[Proof], Proof], forbid_identity: bool = False) -> Proof:
    """p with each critical (or separating) node q replaced by
    ``replace(q)``: a node whose subproof has no introductions (nor Identity,
    for the Milne variant) and reaches a premise leaf, and whose path to the
    root is introductions only.

    One fold: each node maps to (its rebuilt proof, its subproof is clean,
    it reaches a premise), and an introduction replaces its critical
    children as it is rebuilt.
    """

    def step(node: Proof, kids: tuple[tuple[Proof, bool, bool], ...]) -> tuple[Proof, bool, bool]:
        reaches = node.rule == "premise" or any(r for _, _, r in kids)
        if not P.is_intro(node.rule):
            clean = all(c for _, c, _ in kids) and not (forbid_identity and node.rule == "identity")
            return node, clean, reaches
        return P.with_children(node, [replace(q) if c and r else q for q, c, r in kids]), False, reaches

    out, clean, reaches = P.rebuild(p, step)
    return replace(out) if clean and reaches else out


def critical_nodes(p: Proof) -> frozenset[Sequent]:
    """Sequents at nodes with only eliminations/structural steps above and
    only introductions below; requires a normalized proof."""
    if not (P.is_structurally_atomic(p) and P.is_analytic_synthetic(p)):
        raise InterpolationError("critical_nodes requires a normalized proof")
    found: set[Sequent] = set()

    def note(q: Proof) -> Proof:
        found.add(q.conclusion)
        return q

    _replace_critical_nodes(p, note)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Foreign-atom pruning
# ---------------------------------------------------------------------------


def _delete_occurrence(node: Proof, side: str, atom: str, calc: R.Calculus) -> Proof:
    """Remove one occurrence of the atom from the node's conclusion together
    with its ancestor occurrences; weakenings bottom the recursion out.
    ``calc`` is the calculus the proof lives in."""
    target = Atom(atom)
    rule = node.rule
    assert target in getattr(node.conclusion, side), (node.conclusion.render(), side, atom)
    reduced = node.conclusion.remove_one(target, side)

    def delete(child: Proof) -> Proof:
        return _delete_occurrence(child, side, atom, calc)

    if rule in R.COMMON_NAMES:
        if P.common_formula(node) == (target, side):
            # a weakening's occurrence goes with it; a contraction's two
            # copies go from its child
            return node.children[0] if rule in R.WEAKENING_NAMES else delete(delete(node.children[0]))
        return Proof(reduced, rule, (delete(node.children[0]),))
    if rule in R.AXIOM_RULES:
        return Proof(reduced, rule)
    if rule == "premise" or rule == "identity":
        raise InterpolationError(f"cannot prune {atom} through a {rule} node")
    if P.is_logical(rule):
        return Proof(reduced, rule, tuple(delete(c) for c in node.children))
    # specific structural rule: the occurrence lives in a context slot
    schema = calc.rule(rule)
    m = R.match_structural(schema, [c.conclusion for c in node.children], node.conclusion)
    assert m is not None, rule
    slots = schema.conclusion.slots_left if side == "left" else schema.conclusion.slots_right
    slot = next((s for s in slots if target in m.slot_assignment.get(s, ())), None)
    if slot is None:
        raise InterpolationError(
            f"atom {atom} instantiates a schema position of {rule}; cannot prune"
        )
    kids = []
    for child_schema, child in zip(schema.premises, node.children):
        if slot in child_schema.slots_left or slot in child_schema.slots_right:
            kids.append(delete(child))
        else:
            kids.append(child)
    return Proof(reduced, rule, tuple(kids))


def _prune_subproof(sub: Proof, keep_atoms: frozenset[str], calc: R.Calculus) -> Proof:
    out = sub
    while True:
        foreign = sorted(atoms_of(out.conclusion) - keep_atoms)
        if not foreign:
            return out
        a = foreign[0]
        side = "left" if Atom(a) in out.conclusion.left else "right"
        out = _delete_occurrence(out, side, a, calc)


def _require_generalized_cut(calc: R.Calculus) -> None:
    bad = [r.name for r in calc.specific if not R.classify(r).is_generalized_cut]
    if bad:
        raise InterpolationError(f"calculus contains non-generalized-cut rules: {', '.join(bad)}")


def prune_foreign_atoms(p: Proof, premise_atoms: Iterable[str], calc: R.Calculus) -> Proof:
    """Delete ancestor trees of critical-node atoms outside the premises,
    restoring contexts with weakenings below each pruned node."""
    _require_generalized_cut(calc)
    keep = frozenset(premise_atoms)
    return _replace_critical_nodes(p, lambda q: P.weaken_to(_prune_subproof(q, keep, calc), q.conclusion))


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def _interpolate_from_proof(
    proof: Proof,
    premises: Sequence[Sequent],
    eff_calc: R.Calculus,
    forbid_identity: bool = False,
) -> tuple[tuple[Sequent, ...], tuple[Proof, ...], Proof]:
    """Shared core: prune critical (or separating) nodes; return the pruned
    sequents in ``sequent_key`` order, the first pruned subproof found for
    each, and the proof of the conclusion from them."""
    keep = frozenset().union(*map(atoms_of, premises))
    certificates: dict[Sequent, Proof] = {}

    def stand_in(q: Proof) -> Proof:
        pruned = _prune_subproof(q, keep, eff_calc)
        certificates.setdefault(pruned.conclusion, pruned)
        return P.weaken_to(P.premise(pruned.conclusion), q.conclusion)

    rest = _replace_critical_nodes(proof, stand_in, forbid_identity)
    ordered = tuple(sorted(certificates, key=sequent_key))
    return ordered, tuple(map(certificates.__getitem__, ordered)), rest


def _interpolate(
    premises: list[Sequent], conclusion: Sequent, calc: R.Calculus, depth_bound: int, separate: bool
) -> tuple[tuple[Sequent, ...], tuple[Proof, ...], Proof]:
    """Derive the conclusion, which decides entailment in an exact calculus,
    and split the proof at its critical nodes, or with ``separate`` at the
    separating nodes of Milne's split."""
    res = E.derives(premises, conclusion, calc, depth_bound=depth_bound)
    if not res.verdict:
        raise EntailmentError("the premises do not derive the conclusion in this calculus")
    assert res.proof is not None
    if separate:
        # a separating node lies above no Identity, GCL's one rule that is no generalized cut
        return _interpolate_from_proof(RW.separate_identity_cut(res.proof), premises, res.calculus, True)
    _require_generalized_cut(res.calculus)
    return _interpolate_from_proof(res.proof, premises, res.calculus)


def interpolate_sequents(
    premises: Iterable[Sequent],
    conclusion: Sequent,
    calc: Union[str, R.Calculus],
    depth_bound: int = 2,
) -> InterpolationResult:
    """Interpolate S |- c through the critical nodes of a normalized proof.

    The calculus' specific rules must all be generalized cut rules; the
    result carries checkable proof certificates for both directions.
    """
    if isinstance(calc, str):
        calc = R.builtin_calculus(calc)
    left_logic = CALC_TO_LOGIC.get(calc.name)
    if left_logic is None:
        raise InterpolationError(f"no logic to verify the interpolant against for calculus {calc.name}")
    prems = list(premises)
    ordered, certificates, rest = _interpolate(prems, conclusion, calc, depth_bound, False)
    shared = frozenset().union(*map(atoms_of, prems)) & atoms_of(conclusion)
    var_ok = all(atoms_of(s) <= shared for s in ordered)
    oracle_left = all(M.holds_sequent(M.builtin(left_logic), prems, s) for s in ordered)
    oracle_right = M.holds_sequent(M.builtin("b"), ordered, conclusion)
    return InterpolationResult(ordered, set_to_formula(ordered), left_logic, "b", certificates, rest,
                               var_ok and oracle_left and oracle_right)


def milne_interpolate(phi: Formula, psi: Formula) -> InterpolationResult:
    """Classical-logic interpolation split into a Kleene-valid left half and
    a Logic-of-Paradox-valid right half via the separating set."""
    ordered, certificates, rest = _interpolate([rho(phi)], rho(psi), R.builtin_calculus("gcl"), 2, True)
    chi = set_to_formula(ordered)
    ok = verify_interpolant(phi, chi, psi, "k", "lp")
    return InterpolationResult(ordered, chi, "k", "lp", certificates, rest, ok)


# the exact calculus each route derives phi |- psi in
_ROUTE_CALCULI = {"b": "gb", "k": "gk", "etl": "getl", "ecq": "gecq"}


def interpolate_formulas(phi: Formula, psi: Formula, logic_name: str) -> InterpolationResult:
    """Dispatch interpolation per logic: proof-theoretic for b/k/etl/ecq,
    dual route for lp, Milne split for cl. Each route decides entailment by
    its derivation."""
    name = logic_name.lower()
    try:
        if name in _ROUTE_CALCULI:
            return interpolate_sequents([rho(phi)], rho(psi), _ROUTE_CALCULI[name])
        if name == "lp":
            # phi |= psi in lp iff ~psi |= ~phi in k
            chi = Neg(interpolate_sequents([rho(Neg(psi))], rho(Neg(phi)), "gk").interpolant_formula)
            ok = verify_interpolant(phi, chi, psi, "b", "lp")
            return InterpolationResult((rho(chi),), chi, "b", "lp", ("oracle",), "oracle", ok)
        if name == "cl":
            return milne_interpolate(phi, psi)
    except EntailmentError:
        raise EntailmentError(f"phi does not entail psi in {name}") from None
    raise InterpolationError(f"interpolation is not supported for logic {logic_name}")


def verify_interpolant(
    phi: Formula,
    chi: Formula,
    psi: Formula,
    left: Union[str, M.LogicSpec],
    right: Union[str, M.LogicSpec],
) -> bool:
    """Variable condition plus both oracle entailments."""
    l = M.builtin(left) if isinstance(left, str) else left
    r = M.builtin(right) if isinstance(right, str) else right
    if not atoms_of(chi) <= (atoms_of(phi) & atoms_of(psi)):
        return False
    return M.holds(l, [phi], chi) and M.holds(r, [chi], psi)
