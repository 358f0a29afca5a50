"""Spans around calls into the layers of ``supercut``, recorded from outside.

``Tracer.install`` replaces module attributes such as
``supercut.engine.saturate`` with wrappers that open a span, so calls the
program makes internally (``derives`` -> ``saturate``, ``holds_sequent`` ->
``holds``) are caught as well as the benchmark's own. A span is
``[name, start, end, parent index, query id]``; spans stay in memory until
the run ends. Self time is a span's duration minus that of its child spans.

A call into a layer from inside the same layer (``build_intro`` recursing,
``parse_sequent`` calling ``parse_formula``) opens no new span. A callback
passed into ``proofs.build_intro`` runs in a span named after the layer that
made the call, so the engine's leaf supply inside it counts as
``engine.reconstruct``, not as ``proofs.build_intro``.

Counts gathered inside a query are kept only if the query ends before its
time limit, since how far it got depends on the machine. Time spent
computing counts (``hook_s``) is taken off the clock that spans and the
traced run's query timings read (``Tracer.now``).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

from workloads import tree_size

perf = time.perf_counter


def _valuations(counts: Counter, args: tuple, result) -> None:
    from supercut.syntax import atoms_of

    spec, prems, concl = args[0], args[1], args[2] if len(args) > 2 else None
    names: set[str] = set()
    for f in prems + ((concl,) if concl is not None else ()):
        names |= atoms_of(f)
    counts["matrices.valuations"] += sum(len(m.carrier) ** len(names) for m in spec.matrices)


def _saturation(counts: Counter, args: tuple, state) -> None:
    counts["engine.facts_kept"] += len(state.facts)
    counts["engine.facts_minimal"] += len(minimal_keys(state.facts))


def minimal_keys(keys) -> list[tuple[int, int]]:
    """The subsumption-minimal (left mask, right mask) fact keys."""
    out: list[tuple[int, int]] = []
    for l, r in sorted(keys, key=lambda k: (k[0].bit_count() + k[1].bit_count(), k)):
        if not any(a & ~l == 0 and b & ~r == 0 for a, b in out):
            out.append((l, r))
    return out


def _materialize_premises(args: tuple) -> tuple:
    # holds() takes any iterable; the valuation count needs it twice
    return (args[0], tuple(args[1])) + args[2:]


# span name -> (module, attribute) pairs, count hook, argument preparation
LAYERS: dict[str, tuple[tuple[tuple[str, str], ...], Optional[Callable], Optional[Callable]]] = {
    "syntax.parse": ((("syntax", "parse_sequent"), ("syntax", "parse_formula")), None, None),
    "rules.at_set": ((("rules", "at_set"),),
                     lambda c, a, r: c.update({"rules.at_set_members": len(r)}), None),
    "rules.expansion_pool": ((("rules", "expansion_pool"),), None, None),
    "engine.effective_calculus": ((("engine", "effective_calculus"),),
                                  lambda c, a, r: c.update({"engine.effective_rules": len(r[0].specific)}), None),
    "engine.saturate": ((("engine", "saturate"),), _saturation, None),
    "engine.reconstruct": ((("engine", "reconstruct"),), None, None),
    "engine.derives_self": ((("engine", "derives"),), None, None),
    "matrices.holds_sequent": ((("matrices", "holds_sequent"),), None, None),
    "matrices.holds": ((("matrices", "holds"),), _valuations, _materialize_premises),
    "proofs.check": ((("proofs", "check"),),
                     lambda c, a, r: c.update({"proofs.proof_nodes": tree_size(a[0])}), None),
    "proofs.build_intro": ((("proofs", "build_intro"),), None, None),
    "proofs.elim_targets": ((("proofs", "elim_targets"),), None, None),
    "proofs.serialize": ((("proofs", "proof_from_dict"), ("proofs", "proof_to_dict")), None, None),
    "rewrite.normalize": ((("rewrite", "normalize"),), None, None),
    "rewrite.expand_structural": ((("rewrite", "expand_structural"),),
                                  lambda c, a, r: c.update({"rewrite.expanded_nodes": tree_size(r)}), None),
    "rewrite.make_analytic_synthetic": ((("rewrite", "make_analytic_synthetic"),), None, None),
    "rewrite.enforce_subformula": ((("rewrite", "enforce_subformula"),), None, None),
    "rewrite.eliminate_cuts": ((("rewrite", "eliminate_cuts"),), None, None),
    "rewrite.simplify_refutation": ((("rewrite", "simplify_refutation"),), None, None),
    "rewrite.separate_identity_cut": ((("rewrite", "separate_identity_cut"),), None, None),
    "interpolation.self": ((("interpolation", "interpolate_formulas"), ("interpolation", "interpolate_sequents"),
                            ("interpolation", "milne_interpolate"), ("interpolation", "verify_interpolant")),
                           None, None),
    "cli.run": ((("cli", "run"),), None, None),
}
CALLED_LAYERS = ("engine.saturate", "matrices.holds", "proofs.check", "rules.at_set", "syntax.parse", "cli.run")
CALLBACK_ARG = {"proofs.build_intro": 1}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query: str = "setup"
        self.counts: Counter = Counter()
        self.pending: Counter = Counter()
        self.hook_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function, under every name a ``supercut`` module
        binds it to (``from .x import f`` makes a second binding)."""
        modules = [m for name, m in sys.modules.items() if name == "supercut" or name.startswith("supercut.")]
        for name, (targets, hook, prepare) in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"supercut.{mod_name}"], attr)
                wrapper = self._wrap(name, original, hook, prepare)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def now(self) -> float:
        """The clock of spans: wall time minus time spent computing counts."""
        return perf() - self.hook_s

    def _wrap(self, name: str, fn, hook, prepare):
        spans, stack = self.spans, self.stack
        callback_arg = CALLBACK_ARG.get(name)
        calls_key = f"{name}_calls" if name in CALLED_LAYERS else None

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if prepare is not None:
                args = prepare(args)
            if callback_arg is not None and stack:
                args = list(args)
                args[callback_arg] = self._in_span(spans[stack[-1]][0], args[callback_arg])
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            t = perf()
            if calls_key is not None:
                self.pending[calls_key] += 1
            if hook is not None:
                hook(self.pending, args, result)
            self.hook_s += perf() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _in_span(self, name: str, fn):
        def callback(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return callback

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, None, self.stack[-1] if self.stack else -1, self.query])
        self.stack.append(idx)
        self.spans[idx][1] = self.now()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.now()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    # -- queries ------------------------------------------------------------

    def begin(self, query: str) -> None:
        self.query = query
        self.pending = Counter()

    def end(self, keep_counts: bool) -> None:
        """Close spans a time limit left open and commit the query's counts."""
        now = self.now()
        for idx in self.stack:
            if self.spans[idx][2] is None:
                self.spans[idx][2] = now
        self.stack.clear()
        if keep_counts:
            self.counts.update(self.pending)
        self.pending = Counter()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the duration of child spans."""
        own: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if end is None:  # a time limit struck while the span was opening
                continue
            dur = end - start
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        return dict(own)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
