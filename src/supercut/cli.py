"""Command-line front end.

Exit codes: 0 affirmative verdict / success, 1 negative verdict, 2 usage or
parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional, Sequence

from . import engine as E
from . import interpolation as I
from . import matrices as M
from . import proofs as P
from . import rewrite as RW
from . import rules as R
from .syntax import (
    Formula,
    ParseError,
    ResourceCapError,
    Sequent,
    Substitution,
    SupercutError,
    parse_formula,
    parse_sequent,
    render,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line on stderr, without the usage block
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """An argparse type: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: parsing keeps no
    state in the parser, each call fills a fresh namespace."""
    ap = _Parser(prog="supercut", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, search=True, output=True):
        sp.add_argument("--calculus", choices=R.CALCULUS_NAMES, required=True)
        if search:  # only the search takes a bound
            sp.add_argument("--max-facts", type=_positive_int, default=200000)
        if output:  # check prints a verdict, never a proof
            sp.add_argument("--emit-proof", metavar="PATH")
            sp.add_argument("--format", choices=("text", "dot"), default="text")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("-p", "--premise", action="append", default=[], metavar="SEQ")
        sp.add_argument("--premises-file", metavar="PATH")

    sp = sub.add_parser("prove", help="decide derivability of a sequent")
    add_common(sp)
    sp.add_argument("goal", metavar="SEQUENT")

    sp = sub.add_parser("refute", help="decide derivability of the empty sequent")
    add_common(sp)

    sp = sub.add_parser("semantics", help="matrix-consequence oracle on formulas")
    sp.add_argument("--logic", choices=M.LOGIC_NAMES, required=True)
    sp.add_argument("-p", "--premise", action="append", default=[], metavar="FORMULA")
    sp.add_argument("--premises-file", metavar="PATH")
    sp.add_argument("goal", nargs="?", metavar="FORMULA", help="omit for an antitheorem check")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("check", help="check a serialized proof")
    add_common(sp, search=False, output=False)
    sp.add_argument("proof", metavar="PROOF_JSON")

    sp = sub.add_parser("normalize", help="normalize a serialized proof")
    add_common(sp, search=False)
    sp.add_argument("proof", metavar="PROOF_JSON")
    sp.add_argument("--trace", action="store_true")

    sp = sub.add_parser("interpolate", help="compute an interpolant")
    sp.add_argument("--logic", choices=M.LOGIC_NAMES, required=True)
    sp.add_argument("phi", metavar="FORMULA")
    sp.add_argument("psi", metavar="FORMULA")
    sp.add_argument("--emit-proof", metavar="PATH")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(format="text")  # the proof file is JSON

    sp = sub.add_parser("expand", help="sigma-expand a structural rule")
    sp.add_argument("rule", metavar="RULE", help="rule text or @file")
    sp.add_argument("sigma", metavar="SIGMA", help="e.g. \"p = p & q; r = r\"")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("structuralize", help="convert a Hilbert rule to structural rules")
    sp.add_argument("-p", "--premise", action="append", default=[], metavar="FORMULA")
    sp.add_argument("conclusion", nargs="?", metavar="FORMULA", help="omit for an explosive rule")
    sp.add_argument("--json", action="store_true")
    return ap


def _premise_texts(args) -> list[str]:
    """The -p texts, then the lines of --premises-file less comments and blanks."""
    texts = list(args.premise)
    if getattr(args, "premises_file", None):
        with open(args.premises_file) as fh:
            texts += [t for t in (line.split("#", 1)[0].strip() for line in fh) if t]
    return texts


def _read_sequents(args) -> list[Sequent]:
    return [parse_sequent(t) for t in _premise_texts(args)]


def _read_formulas(args) -> list[Formula]:
    return [parse_formula(t) for t in _premise_texts(args)]


def _declared_premises(args, proof: P.Proof) -> list[Sequent]:
    """The premises given on the command line; without any, the proof's
    premise leaves: each leaf with a ``premise_index`` at that position, the
    leaves without one in rendering order in the positions left free."""
    given = _read_sequents(args)
    if given:
        return given
    indexed: dict[int, Sequent] = {}
    loose: set[Sequent] = set()
    for node in proof.nodes():
        if node.rule == "premise":
            if node.premise_index is None:
                loose.add(node.conclusion)
            else:
                indexed.setdefault(node.premise_index, node.conclusion)
    free = iter(sorted(loose, key=lambda s: s.render()))
    out = []
    for i in range(len(indexed) + len(loose)):
        s = indexed[i] if i in indexed else next(free, None)
        if s is not None:  # else an index past the end left a gap, and check rejects it
            out.append(s)
    return out


def _emit_proof(proof: Optional[P.Proof], args) -> None:
    if proof is None or not args.emit_proof:
        return
    with open(args.emit_proof, "w") as fh:
        if args.format == "dot":
            fh.write(P.proof_to_dot(proof))
        else:
            json.dump(P.proof_to_dict(proof), fh, indent=2)
        fh.write("\n")


def _print_result(res: E.DeriveResult, args) -> int:
    if args.json:
        out = {
            "verdict": res.verdict,
            "complete": res.complete,
            "calculus": res.calculus.name,
            "facts": res.fact_count,
        }
        if res.proof is not None:
            out["proof"] = P.proof_to_dict(res.proof)
        print(json.dumps(out))
    else:
        print("derivable" if res.verdict else "not derivable")
        if res.proof is not None and args.format == "dot":
            print(P.proof_to_dot(res.proof))
    _emit_proof(res.proof, args)
    return EXIT_YES if res.verdict else EXIT_NO


def run(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_YES
    try:
        return _dispatch(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource cap exceeded: input nested too deeply", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except I.EntailmentError as exc:
        print(f"no entailment: {exc}", file=sys.stderr)
        return EXIT_NO
    except SupercutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "prove":
        calc = R.builtin_calculus(args.calculus)
        res = E.derives(_read_sequents(args), parse_sequent(args.goal), calc, max_facts=args.max_facts)
        return _print_result(res, args)

    if args.command == "refute":
        calc = R.builtin_calculus(args.calculus)
        res = E.refutes(_read_sequents(args), calc, max_facts=args.max_facts)
        return _print_result(res, args)

    if args.command == "semantics":
        spec = M.builtin(args.logic)
        prems = _read_formulas(args)
        goal = parse_formula(args.goal) if args.goal is not None else None
        verdict = M.holds(spec, prems, goal)
        if args.json:
            print(json.dumps({"verdict": verdict, "logic": args.logic}))
        else:
            print("valid" if verdict else "invalid")
        return EXIT_YES if verdict else EXIT_NO

    if args.command == "check":
        calc = R.builtin_calculus(args.calculus)
        with open(args.proof) as fh:
            proof = P.proof_from_dict(json.load(fh))
        res = P.check(proof, calc, _declared_premises(args, proof))
        if args.json:
            print(json.dumps({"ok": res.ok, "path": list(res.path or ()), "reason": res.reason}))
        elif res.ok:
            print("ok")
        else:
            print(f"invalid at {list(res.path)}: {res.reason}")
        return EXIT_YES if res.ok else EXIT_NO

    if args.command == "normalize":
        calc = R.builtin_calculus(args.calculus)
        with open(args.proof) as fh:
            proof = P.proof_from_dict(json.load(fh))
        declared = _declared_premises(args, proof)
        trace = RW.RewriteTrace() if args.trace else None
        out = RW.normalize(proof, calc, declared, proof.conclusion, trace)
        if args.json:
            blob = {"proof": P.proof_to_dict(out)}
            if trace is not None:
                blob["trace"] = trace.entries
            print(json.dumps(blob))
        else:
            if args.format == "dot":
                print(P.proof_to_dot(out))
            else:
                print(json.dumps(P.proof_to_dict(out), indent=2))
            if trace is not None:
                for entry in trace.entries:
                    print("#", *entry, file=sys.stderr)
        _emit_proof(out, args)
        return EXIT_YES

    if args.command == "interpolate":
        phi, psi = parse_formula(args.phi), parse_formula(args.psi)
        res = I.interpolate_formulas(phi, psi, args.logic)
        if args.json:
            print(
                json.dumps(
                    {
                        "interpolant": render(res.interpolant_formula),
                        "sequents": [s.render() for s in res.interpolant_sequents],
                        "left_logic": res.left_logic,
                        "right_logic": res.right_logic,
                        "verified": res.verified,
                    }
                )
            )
        else:
            print(f"interpolant: {render(res.interpolant_formula)}")
            for s in res.interpolant_sequents:
                print(f"  sequent: {s.render()}")
            print(f"certified: {res.left_logic} entailment ok, {res.right_logic} entailment ok"
                  if res.verified else "verification FAILED")
        _emit_proof(res.right_certificate, args)
        return EXIT_YES if res.verified else EXIT_NO

    if args.command == "expand":
        text = args.rule
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read().strip()
        rule = R.parse_structural_rule(text)
        mapping = {}
        for part in args.sigma.split(";"):
            part = part.strip()
            if not part:
                continue
            name, _, image = (t.strip() for t in part.partition("="))
            if not name:
                raise ParseError("SIGMA entry without an atom", args.sigma.find(part), "'atom = formula'")
            atoms = rule.schema_atoms()
            if name not in atoms:
                raise ParseError(f"SIGMA names {name}, not a schema atom of the rule", args.sigma.find(part),
                                 "one of " + " ".join(atoms) if atoms else "no entry: the rule has no schema atoms")
            if name in mapping:
                raise ParseError(f"SIGMA gives {name} a second image", args.sigma.find(part), "one image per atom")
            mapping[name] = parse_formula(image)
        out = sorted(R.sigma_expand(rule, Substitution(mapping)), key=lambda r: r.render())
        if args.json:
            print(json.dumps([r.render() for r in out]))
        else:
            for r in out:
                print(r.render())
        return EXIT_YES

    if args.command == "structuralize":
        prems = _read_formulas(args)
        concl = parse_formula(args.conclusion) if args.conclusion is not None else None
        out = sorted(R.hilbert_to_structural(prems, concl), key=lambda r: r.render())
        if args.json:
            print(json.dumps([r.render() for r in out]))
        else:
            for r in out:
                print(r.render())
        return EXIT_YES

    raise AssertionError(args.command)


def main() -> None:  # pragma: no cover - entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
