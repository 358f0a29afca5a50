"""Interpolant extraction from normalized proofs, Milne's split, and the
oracle-backed verifier for interpolation claims."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

from . import engine as E
from . import matrices as M
from . import proofs as P
from . import rules as R
from .proofs import Proof
from .syntax import (
    Formula,
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
    """``left_certificates`` holds one Proof per interpolant sequent, from
    the premises, and ``right_certificate`` the Proof of the conclusion from
    the interpolant sequents."""

    __slots__ = _fields = ("interpolant_sequents", "interpolant_formula", "left_logic", "right_logic",
                           "left_certificates", "right_certificate", "verified")


# ---------------------------------------------------------------------------
# Critical nodes and the separating set
# ---------------------------------------------------------------------------


def _replace_critical_nodes(p: Proof, replace: Callable[[Proof], Proof], calc: R.Calculus) -> Proof:
    """p with each critical node q replaced by ``replace(q)``: a node whose
    subproof has no introductions nor Identity, read in ``calc``, and
    reaches a premise leaf, and whose path to the root is introductions
    only. In a proof with Identity these are Milne's separating nodes.

    One fold: each node maps to (its rebuilt proof, its subproof is clean,
    it reaches a premise), and an introduction replaces its critical
    children as it is rebuilt.
    """

    def step(node: Proof, kids: tuple[tuple[Proof, bool, bool], ...]) -> tuple[Proof, bool, bool]:
        reaches = node.rule == "premise" or any(r for _, _, r in kids)
        if not P.is_intro(node.rule):
            identity = not node.children and R.builtin_of(calc.rule(node.rule)) is R.IDENTITY  # Identity is nullary
            return node, all(c for _, c, _ in kids) and not identity, reaches
        return P.with_children(node, [replace(q) if c and r else q for q, c, r in kids]), False, reaches

    out, clean, reaches = P.rebuild(p, step)
    return replace(out) if clean and reaches else out


def critical_nodes(p: Proof, calc: R.Calculus = R.BUILTIN_NAMES) -> frozenset[Sequent]:
    """Sequents at nodes with only eliminations/structural steps above and
    only introductions below, p read in ``calc``; requires a normalized proof."""
    if not (P.is_structurally_atomic(p) and P.is_analytic_synthetic(p)):
        raise InterpolationError("critical_nodes requires a normalized proof")
    found: set[Sequent] = set()

    def note(q: Proof) -> Proof:
        found.add(q.conclusion)
        return q

    _replace_critical_nodes(p, note, calc)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Foreign-atom pruning
# ---------------------------------------------------------------------------


def _prune_subproof(q: Proof, keep: frozenset[str]) -> Proof:
    """q's base, the node above the weakenings that end q, weakened to q's
    conclusion less its members foreign to ``keep``; a base that concludes
    ``|-`` stands for itself, as it weakens to anything.

    In a proof from ``derives`` this prunes every foreign atom: the base
    holds the atoms of the premises only (see ``engine``), so its
    weakenings bring in the rest. An atom foreign to ``keep`` above the
    weakenings is refused, not pruned through the rules above.
    """
    base = q
    while base.rule in R.WEAKENING.values():
        base = base.children[0]
    if base.conclusion.is_empty():
        return base
    foreign = atoms_of(base.conclusion) - keep
    if foreign:
        raise InterpolationError(f"cannot prune {', '.join(sorted(foreign))}: a {base.rule} step, not a "
                                 f"weakening, carries it into {q.conclusion.render()}")
    s = q.conclusion
    return P.weaken_to(base, Sequent([f for f in s.left if atoms_of(f) <= keep],
                                     [f for f in s.right if atoms_of(f) <= keep]))


def prune_foreign_atoms(p: Proof, premise_atoms: Iterable[str], calc: R.Calculus) -> Proof:
    """Delete the atoms outside the premises from each critical node by
    dropping the weakenings that add them, restoring the node's conclusion
    with weakenings below it. A foreign atom that a rule's context carries
    into a critical node raises ``InterpolationError``: ``derives`` builds
    no such proof, though a hand-normalized one may be."""
    bad = [r.name for r in calc.specific if not R.classify(r).is_generalized_cut]
    if bad:
        raise InterpolationError(f"calculus contains non-generalized-cut rules: {', '.join(bad)}")
    keep = frozenset(premise_atoms)
    return _replace_critical_nodes(p, lambda q: P.weaken_to(_prune_subproof(q, keep), q.conclusion), calc)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


# calculus -> (left logic, right logic): the logics the interpolant is
# verified in, the premises entailing it and it entailing the conclusion;
# the proofs of each half live in the logic's own calculus, "g" + its name
SPLIT_LOGICS = {"gb": ("b", "b"), "gk": ("k", "b"), "getl": ("etl", "b"), "gecq": ("ecq", "b"),
                "glp": ("b", "lp"), "gcl": ("k", "lp")}
# the same by the built-in calculus's rules, so a calculus is known by its
# rules up to renaming (``rules.builtin_of``), whatever it and they are named
_SPLIT_BY_RULES = {frozenset(R.builtin_calculus(name).specific): logics for name, logics in SPLIT_LOGICS.items()}


def _split(proof: Proof, premises: Sequence[Sequent],
           calc: R.Calculus) -> tuple[tuple[Sequent, ...], tuple[Proof, ...], Proof]:
    """Split a proof from ``derives`` in ``calc`` at its critical nodes,
    which in glp and gcl are Milne's separating nodes, as no Identity lies
    above a Cut there (see ``engine``). Prune each node and contract it to
    its support; return the pruned sequents in ``sequent_key`` order, the
    first pruned subproof found for each, and the proof of the conclusion
    from them. A critical node that weakens ``|-`` prunes to it, and ``|-``
    weakens to the conclusion itself, so it is then the one sequent."""
    keep = frozenset().union(*map(atoms_of, premises))
    certificates: dict[Sequent, Proof] = {}

    def stand_in(q: Proof) -> Proof:
        sub = _prune_subproof(q, keep)
        pruned = P.contract_to(sub, sub.conclusion.support())  # a premise may repeat members
        certificates.setdefault(pruned.conclusion, pruned)
        return P.weaken_to(P.premise(pruned.conclusion), q.conclusion)

    rest = _replace_critical_nodes(proof, stand_in, calc)
    empty = Sequent()
    if empty in certificates:
        return (empty,), (certificates[empty],), P.weaken_to(P.premise(empty), proof.conclusion)
    ordered = tuple(sorted(certificates, key=sequent_key))
    return ordered, tuple(map(certificates.__getitem__, ordered)), rest


def interpolate_sequents(
    premises: Iterable[Sequent], conclusion: Sequent, calc: Union[str, R.Calculus]
) -> InterpolationResult:
    """Interpolate S |- c: derive it, which decides entailment in an exact
    calculus, split the proof at its critical nodes (``_split``), and verify
    the interpolant sequents in the two ``SPLIT_LOGICS`` of the built-in
    calculus whose rules the calculus' are up to renaming.

    Each interpolant sequent carries a proof from S in the left logic's
    calculus, and c a proof from them in the right logic's.
    """
    if isinstance(calc, str):
        calc = R.builtin_calculus(calc)
    logics = _SPLIT_BY_RULES.get(frozenset(map(R.builtin_of, calc.specific)).difference(R.COMMON_RULES))
    if logics is None:
        raise InterpolationError(f"no logic to verify the interpolant against for calculus {calc.name}")
    left, right = logics
    prems = list(premises)
    res = E.derives(prems, conclusion, calc)
    if not res.verdict:
        raise EntailmentError("the premises do not derive the conclusion in this calculus")
    assert res.proof is not None
    ordered, certificates, rest = _split(res.proof, prems, res.calculus)
    shared = frozenset().union(*map(atoms_of, prems)) & atoms_of(conclusion)
    verified = (all(atoms_of(s) <= shared for s in ordered)
                and all(M.holds_sequent(M.builtin(left), prems, s) for s in ordered)
                and M.holds_sequent(M.builtin(right), ordered, conclusion))
    return InterpolationResult(ordered, set_to_formula(ordered), left, right, certificates, rest, verified)


def interpolate_formulas(phi: Formula, psi: Formula, logic_name: str) -> InterpolationResult:
    """Interpolate phi |= psi by ``interpolate_sequents`` on rho(phi) |-
    rho(psi) in the logic's calculus, whose derivation decides entailment."""
    name = logic_name.lower()
    if "g" + name not in SPLIT_LOGICS:
        raise InterpolationError(f"interpolation is not supported for logic {logic_name}")
    try:
        return interpolate_sequents([rho(phi)], rho(psi), "g" + name)
    except EntailmentError:
        raise EntailmentError(f"phi does not entail psi in {name}") from None


def milne_interpolate(phi: Formula, psi: Formula) -> InterpolationResult:
    """Classical-logic interpolation split into a Kleene-valid left half and
    a Logic-of-Paradox-valid right half via the separating set."""
    return interpolate_formulas(phi, psi, "cl")


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
