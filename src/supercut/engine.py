"""Derivability by atomic saturation, with normal-form proof reconstruction.

Atomic sequents are represented as pairs of atom sets (bitmasks over the
query's atom universe): Weakening and Contraction are common rules of
every calculus, so atomic derivability only depends on underlying sets.
Reconstruction reinserts explicit atomic Weakening/Contraction steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import proofs as P
from . import rules as R
from .syntax import Atom, ResourceCapError, Sequent, atoms_of, sequent_key

FactKey = tuple[int, int]


@dataclass(frozen=True)
class DeriveResult:
    verdict: bool
    complete: bool
    calculus: R.Calculus
    proof: Optional[P.Proof]
    fact_count: int


# Rule shapes known to satisfy the expansion property, making saturation
# over plain atomic instances complete.
_EXPANSION_SAFE_KEYS = frozenset(
    {
        R.IDENTITY.schema_key(),
        R.CUT.schema_key(),
        R.WEAKENING_LEFT.schema_key(),
        R.WEAKENING_RIGHT.schema_key(),
        R.CONTRACTION_LEFT.schema_key(),
        R.CONTRACTION_RIGHT.schema_key(),
    }
)


def is_exact(calc: R.Calculus) -> bool:
    return all(r.schema_key() in _EXPANSION_SAFE_KEYS for r in calc.specific)


def effective_calculus(calc: R.Calculus, depth_bound: int = 2) -> tuple[R.Calculus, bool]:
    """The calculus actually saturated: bounded calculi gain their expansion pool."""
    if is_exact(calc):
        return calc, True
    pool: dict[tuple, R.StructuralRule] = {r.schema_key(): r for r in calc.specific}
    for r in calc.specific:
        for e in R.expansion_pool(r, depth_bound):
            pool.setdefault(e.schema_key(), e)
    specific = tuple(sorted(pool.values(), key=lambda r: r.name))
    return R.Calculus(f"{calc.name}+exp{depth_bound}", specific), False


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


@dataclass
class _CompiledPremise:
    lmask: int
    rmask: int
    lslot: Optional[str]
    rslot: Optional[str]

    def admits(self, fact: FactKey) -> bool:
        l, r = fact
        if self.lslot is None and l & ~self.lmask:
            return False
        if self.rslot is None and r & ~self.rmask:
            return False
        return True


@dataclass
class _CompiledInstance:
    rule: R.StructuralRule
    theta: dict[str, str]
    premises: list[_CompiledPremise]
    concl_lmask: int
    concl_rmask: int
    concl_lslots: tuple[str, ...]
    concl_rslots: tuple[str, ...]


def _mask(names: Iterable[str], index: dict[str, int]) -> int:
    m = 0
    for n in names:
        m |= 1 << index[n]
    return m


def _compile_instances(
    calc: R.Calculus, universe: Sequence[str]
) -> list[_CompiledInstance]:
    index = {a: i for i, a in enumerate(universe)}
    out: list[_CompiledInstance] = []
    for rule in calc.specific:
        names = rule.schema_atoms()
        for combo in itertools.product(universe, repeat=len(names)):
            theta = dict(zip(names, combo))
            premises = []
            for schema in rule.premises:
                assert len(schema.slots_left) <= 1 and len(schema.slots_right) <= 1, (
                    "saturation expects at most one context slot per side"
                )
                premises.append(
                    _CompiledPremise(
                        _mask((theta[a] for a in schema.atoms_left), index),
                        _mask((theta[a] for a in schema.atoms_right), index),
                        schema.slots_left[0] if schema.slots_left else None,
                        schema.slots_right[0] if schema.slots_right else None,
                    )
                )
            c = rule.conclusion
            out.append(
                _CompiledInstance(
                    rule,
                    theta,
                    premises,
                    _mask((theta[a] for a in c.atoms_left), index),
                    _mask((theta[a] for a in c.atoms_right), index),
                    c.slots_left,
                    c.slots_right,
                )
            )
    return out


@dataclass
class SaturationState:
    universe: tuple[str, ...]
    facts: dict[FactKey, tuple]
    calculus: R.Calculus
    premises: tuple[Sequent, ...]


def _minimal_facts(facts: Iterable[FactKey]) -> list[FactKey]:
    keys = sorted(facts, key=lambda k: (k[0].bit_count() + k[1].bit_count(), k))
    out: list[FactKey] = []
    for k in keys:
        if not any(d[0] & ~k[0] == 0 and d[1] & ~k[1] == 0 for d in out):
            out.append(k)
    return out


def _dominated(key: FactKey, minimal: list[FactKey]) -> bool:
    l, r = key
    return any(d[0] & ~l == 0 and d[1] & ~r == 0 for d in minimal)


def saturate(
    premises: Sequence[Sequent],
    calc: R.Calculus,
    universe: Sequence[str],
    max_facts: int = 200000,
) -> SaturationState:
    """Close the seed At-set facts under atomic instances of the calculus rules."""
    index = {a: i for i, a in enumerate(universe)}
    facts: dict[FactKey, tuple] = {}

    def add(key: FactKey, prov: tuple) -> bool:
        if key in facts:
            return False
        if len(facts) >= max_facts:
            raise ResourceCapError(f"fact cap {max_facts} exceeded")
        facts[key] = prov
        return True

    for i, s in enumerate(premises):
        for member in sorted(R.at_set(s), key=sequent_key):
            sup = member.support()
            key = (
                _mask((f.name for f in sup.left if isinstance(f, Atom)), index),
                _mask((f.name for f in sup.right if isinstance(f, Atom)), index),
            )
            add(key, ("seed", i, member))

    instances = _compile_instances(calc, universe)
    changed = True
    while changed:
        changed = False
        minimal = _minimal_facts(facts)
        for inst in instances:
            if _fire_instance(inst, facts, minimal, add):
                changed = True
    return SaturationState(tuple(universe), facts, calc, tuple(premises))


def _fire_instance(inst: _CompiledInstance, facts, minimal, add) -> bool:
    candidates: list[list[FactKey]] = []
    for prem in inst.premises:
        cands = [k for k in minimal if prem.admits(k)]
        if not cands:
            return False
        if prem.lslot is None and prem.rslot is None:
            # content never reaches the conclusion; one witness suffices
            cands = cands[:1]
        candidates.append(cands)

    added = False
    slot_order: list[tuple[int, str, int]] = []  # (premise idx, slot name, side)
    for j, prem in enumerate(inst.premises):
        if prem.lslot is not None:
            slot_order.append((j, prem.lslot, 0))
        if prem.rslot is not None:
            slot_order.append((j, prem.rslot, 1))

    def rec(j: int, chosen: list[FactKey], slots: dict[str, tuple[int, int]]) -> None:
        nonlocal added
        if j == len(inst.premises):
            cl = inst.concl_lmask
            cr = inst.concl_rmask
            for s in inst.concl_lslots:
                sl, sr = slots.get(s, (0, 0))
                cl |= sl
                cr |= sr
            for s in inst.concl_rslots:
                sl, sr = slots.get(s, (0, 0))
                cl |= sl
                cr |= sr
            key = (cl, cr)
            if key not in facts:
                if add(
                    key,
                    (
                        "rule",
                        inst.rule.name,
                        dict(inst.theta),
                        tuple(chosen),
                        dict(slots),
                    ),
                ):
                    added = True
            return
        prem = inst.premises[j]
        for k in candidates[j]:
            new_slots = dict(slots)
            resid_l = k[0] & ~prem.lmask
            resid_r = k[1] & ~prem.rmask
            ok = True
            if prem.lslot is not None:
                old = new_slots.get(prem.lslot, (0, 0))
                new_slots[prem.lslot] = (old[0] | resid_l, old[1])
            elif resid_l:
                ok = False
            if ok and prem.rslot is not None:
                old = new_slots.get(prem.rslot, (0, 0))
                new_slots[prem.rslot] = (old[0], old[1] | resid_r)
            elif ok and resid_r:
                ok = False
            if ok:
                rec(j + 1, chosen + [k], new_slots)

    rec(0, [], {})
    return added


# Slot contents are tracked per side; a slot fed from the left keeps its
# residue on the left. Conclusion slots re-emit both components.


def _fact_sequent(key: FactKey, universe: Sequence[str]) -> Sequent:
    return Sequent(
        (Atom(a) for i, a in enumerate(universe) if key[0] >> i & 1),
        (Atom(a) for i, a in enumerate(universe) if key[1] >> i & 1),
    )


def _covering_fact(state: SaturationState, leaf: Sequent) -> Optional[FactKey]:
    index = {a: i for i, a in enumerate(state.universe)}
    sup = leaf.support()
    l = _mask((f.name for f in sup.left if isinstance(f, Atom)), index)
    r = _mask((f.name for f in sup.right if isinstance(f, Atom)), index)
    best = None
    for k in state.facts:
        if k[0] & ~l == 0 and k[1] & ~r == 0:
            size = bin(k[0]).count("1") + bin(k[1]).count("1")
            cand = (size, k)
            if best is None or cand < best:
                best = cand
    return best[1] if best else None


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def reconstruct(state: SaturationState, goal: Sequent, premises: Sequence[Sequent]) -> P.Proof:
    """Assemble the three-phase proof: eliminations from the premises,
    atomic structural steps from the saturation provenance, introductions
    down to the goal."""
    universe = state.universe
    rule_map = state.calculus.rule_map()
    elim_cache: dict[int, dict[Sequent, P.Proof]] = {}
    replay_cache: dict[FactKey, P.Proof] = {}

    def elim_for(i: int) -> dict[Sequent, P.Proof]:
        if i not in elim_cache:
            elim_cache[i] = P.elim_targets(P.premise(premises[i], i))
        return elim_cache[i]

    def replay(key: FactKey) -> P.Proof:
        if key in replay_cache:
            return replay_cache[key]
        prov = state.facts[key]
        target = _fact_sequent(key, universe)
        if prov[0] == "seed":
            _, i, member = prov
            proof = P.contract_to(elim_for(i)[member], target)
        else:
            _, rule_name, theta, parents, slots = prov
            rule = rule_map[rule_name]
            children = []
            for j, schema in enumerate(rule.premises):
                inst = _instance_sequent(schema, theta, slots, universe)
                children.append(P.weaken_to(replay(parents[j]), inst))
            concl = _instance_sequent(rule.conclusion, theta, slots, universe)
            node = P.structural(rule_name, children, concl)
            proof = P.contract_to(node, target)
        replay_cache[key] = proof
        return proof

    def mid(leaf: Sequent) -> P.Proof:
        key = _covering_fact(state, leaf)
        assert key is not None, f"no fact covers {leaf.render()}"
        return P.weaken_to(replay(key), leaf)

    return P.build_intro(goal, mid)


def _instance_sequent(
    schema: R.SequentSchema,
    theta: dict[str, str],
    slots: dict[str, tuple[int, int]],
    universe: Sequence[str],
) -> Sequent:
    left = [Atom(theta[a]) for a in schema.atoms_left]
    right = [Atom(theta[a]) for a in schema.atoms_right]
    for s in schema.slots_left + schema.slots_right:
        sl, sr = slots.get(s, (0, 0))
        left.extend(Atom(a) for i, a in enumerate(universe) if sl >> i & 1)
        right.extend(Atom(a) for i, a in enumerate(universe) if sr >> i & 1)
    return Sequent(left, right)


# ---------------------------------------------------------------------------
# Public decision procedures
# ---------------------------------------------------------------------------


def derives(
    premises: Iterable[Sequent],
    conclusion: Sequent,
    calc: R.Calculus,
    depth_bound: int = 2,
    max_facts: int = 200000,
) -> DeriveResult:
    """Decide derivability; exact for GB/GLP/GK/GCL, sound-but-bounded otherwise.

    Returns a checked structurally atomic analytic-synthetic proof with the
    subformula property whenever the verdict is positive.
    """
    prems = list(premises)
    eff, exact = effective_calculus(calc, depth_bound)
    if conclusion in prems:
        proof = P.premise(conclusion, prems.index(conclusion))
        return DeriveResult(True, exact, eff, proof, 0)
    universe = sorted(set().union(*(atoms_of(s) for s in prems + [conclusion])))
    if not universe:
        universe = ["a"]  # subformula-property corner: one designated atom
    state = saturate(prems, eff, universe, max_facts=max_facts)
    leaves = R.at_set(conclusion)
    verdict = all(_covering_fact(state, leaf) is not None for leaf in leaves)
    proof = reconstruct(state, conclusion, prems) if verdict else None
    return DeriveResult(verdict, exact, eff, proof, len(state.facts))


def refutes(
    premises: Iterable[Sequent],
    calc: R.Calculus,
    depth_bound: int = 2,
    max_facts: int = 200000,
) -> DeriveResult:
    """Derivability of the empty sequent; refutation proofs have no introductions."""
    return derives(premises, Sequent(), calc, depth_bound=depth_bound, max_facts=max_facts)
