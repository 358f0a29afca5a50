"""Sequent-calculus proof engine for Belnap-family logics.

Derivability decisions, proof checking and normalization, cut elimination,
and interpolant extraction, cross-checked by finite-matrix semantics.
"""

from .syntax import (
    And,
    Atom,
    BOT,
    Bot,
    Formula,
    Neg,
    Or,
    ParseError,
    PolarityReport,
    ResourceCapError,
    Sequent,
    Substitution,
    SupercutError,
    TOP,
    Top,
    apply_subst,
    atoms_of,
    decompose_substitution,
    is_balanced,
    is_balanced_subst,
    is_non_conflicting,
    is_atomic_subst,
    parse_formula,
    parse_sequent,
    polarity,
    render,
    rho,
    set_to_formula,
    subformulas,
    tau,
)
from .matrices import (
    B4,
    BOOL2,
    ETL4,
    K3,
    LP3,
    LogicSpec,
    Matrix,
    builtin,
    check_info_monotone,
    eval_formula,
    holds,
    holds_sequent,
    information_order,
    product_matrix,
)
from .rules import (
    Calculus,
    RuleClassification,
    SequentSchema,
    StructuralRule,
    at_set,
    builtin_calculus,
    classify,
    hilbert_to_structural,
    match_logical,
    match_structural,
    parse_structural_rule,
    sigma_expand,
)
from .proofs import (
    CheckResult,
    Proof,
    check,
    has_subformula_property,
    intro_derive,
    is_analytic_synthetic,
    is_structurally_atomic,
    phase_split,
    proof_from_dict,
    proof_to_dict,
    proof_to_dot,
)
from .engine import DeriveResult, derives, refutes
from .rewrite import (
    RewriteTrace,
    eliminate_cuts,
    enforce_subformula,
    expand_structural,
    make_analytic_synthetic,
    normalize,
    separate_identity_cut,
    simplify_refutation,
)
from .interpolation import (
    InterpolationResult,
    critical_nodes,
    interpolate_formulas,
    interpolate_sequents,
    milne_interpolate,
    prune_foreign_atoms,
    verify_interpolant,
)

__version__ = "0.1.0"
