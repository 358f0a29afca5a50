"""Command-line interface: exit codes, JSON output, proof round-trips."""

import json
import os
import random
import subprocess
import sys

import pytest

import supercut
from supercut.cli import run
from supercut.proofs import check, proof_from_dict, proof_to_dict
from supercut.engine import derives
from supercut.rules import builtin_calculus
from supercut.syntax import parse_sequent as ps

from conftest import wide_context_cut


def test_prove_exit_codes(capsys):
    assert run(["prove", "--calculus", "getl", "-p", "|- p", "-p", "|- ~p | q", "|- q"]) == 0
    assert run(["prove", "--calculus", "gb", "|- p | ~p"]) == 1
    assert run(["prove", "--calculus", "gb", "|- p |"]) == 2
    capsys.readouterr()


def test_sequent_without_turnstile(capsys):
    assert run(["prove", "--calculus", "gb", "p"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at position 1 " in err


def test_member_error_points_into_the_sequent(capsys):
    assert run(["prove", "--calculus", "gk", "p |- p, "]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at position 8 " in err


def test_semantics(capsys):
    assert run(["semantics", "--logic", "b", "-p", "p", "-p", "~p", "q"]) == 1
    assert run(["semantics", "--logic", "etl", "-p", "p", "-p", "~p | q", "q"]) == 0
    # antitheorem check with the goal omitted
    assert run(["semantics", "--logic", "k", "-p", "(p & ~p) | (q & ~q)"]) == 0
    assert run(["semantics", "--logic", "etl", "-p", "(p & ~p) | (q & ~q)"]) == 1
    capsys.readouterr()


def test_refute(capsys):
    assert run(["refute", "--calculus", "gecq", "-p", "|- p", "-p", "p |-"]) == 0
    assert run(["refute", "--calculus", "gcl"]) == 1
    capsys.readouterr()


def test_prove_json_and_proof_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "proof.json"
    code = run(
        [
            "prove", "--calculus", "gk", "--json",
            "-p", "|- p | q", "-p", "|- ~q | r",
            "--emit-proof", str(out_path),
            "|- p | r",
        ]
    )
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] is True and blob["complete"] is True
    proof = proof_from_dict(blob["proof"])
    assert check(proof, builtin_calculus("gk"), [ps("|- p | q"), ps("|- ~q | r")]).ok
    # the emitted file goes through the check command
    assert run(["check", "--calculus", "gk", str(out_path),
                "-p", "|- p | q", "-p", "|- ~q | r"]) == 0
    capsys.readouterr()


def test_prove_matches_semantics_cross_check(capsys):
    cases = [
        (["-p", "|- p & q"], "|- p", "gb", "b", ["-p", "p & q"], "p"),
        ([], "|- p | ~p", "glp", "lp", [], "p | ~p"),
        ([], "|- p | ~p", "gb", "b", [], "p | ~p"),
    ]
    for prems, goal, calc, logic, fprems, fgoal in cases:
        a = run(["prove", "--calculus", calc, *prems, goal])
        b = run(["semantics", "--logic", logic, *fprems, fgoal])
        assert a == b
    capsys.readouterr()


def test_check_rejects_tampered_proof(tmp_path, capsys):
    out_path = tmp_path / "proof.json"
    run(["prove", "--calculus", "glp", "--emit-proof", str(out_path), "|- p | ~p"])
    blob = json.loads(out_path.read_text())
    blob["sequent"] = "|- q | ~p"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(blob))
    assert run(["check", "--calculus", "glp", str(bad_path)]) == 1
    capsys.readouterr()


def test_normalize_command(tmp_path, capsys):
    proof = {
        "sequent": "p & q |- p & q",
        "rule": "identity",
    }
    path = tmp_path / "id.json"
    path.write_text(json.dumps(proof))
    assert run(["normalize", "--calculus", "gcl", "--json", "--trace", str(path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["trace"]
    normalized = proof_from_dict(blob["proof"])
    assert check(normalized, builtin_calculus("gcl"), []).ok


def test_check_json(tmp_path, capsys):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps({"sequent": "p & q |- p & q", "rule": "identity"}))
    assert run(["check", "--calculus", "gcl", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "path": [], "reason": None}
    assert run(["check", "--calculus", "gb", "--json", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "path": [], "reason": "rule not in calculus: identity"}


def test_normalize_dot_and_trace_lines(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"sequent": "p & q |- p & q", "rule": "identity"}))
    assert run(["normalize", "--calculus", "gcl", "--trace", str(path)]) == 0
    out, err = capsys.readouterr()
    assert proof_from_dict(json.loads(out)).conclusion == ps("p & q |- p & q")
    assert err.splitlines() == ["# expand-principal p & q |- p & q identity"]
    assert run(["normalize", "--calculus", "gcl", "--format", "dot", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("digraph proof {") and not err
    assert '  n3 [label="p |- p\\n[identity]"];' in out.splitlines()
    assert '  n1 -> n0 [label="and-left-intro"];' in out.splitlines()


# premise 0 renders after premise 1, so premises declared in rendering
# order would not match the indices
REPEATED_ATOM_CUT = {
    "sequent": "r |- s",
    "rule": "limited-cut-left",
    "children": [
        {"sequent": "|- p & p", "rule": "premise", "premise_index": 0},
        {"sequent": "p & p, r |- s", "rule": "premise", "premise_index": 1},
    ],
}


def test_normalize_bounded_step_on_a_repeated_atom(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(REPEATED_ATOM_CUT))
    assert run(["normalize", "--calculus", "getl", "--json", str(path)]) == 0
    normalized = proof_from_dict(json.loads(capsys.readouterr().out)["proof"])
    assert check(normalized, builtin_calculus("getl"), [ps("|- p & p"), ps("p & p, r |- s")]).ok


DEEP_LIMITED_CUT = {
    "sequent": "t |- u",
    "rule": "limited-cut-left",
    "children": [
        {"sequent": "|- ((p & q) | ~r) & s", "rule": "premise", "premise_index": 0},
        {"sequent": "((p & q) | ~r) & s, t |- u", "rule": "premise", "premise_index": 1},
    ],
}


def test_normalize_bounded_step_on_a_depth_three_formula(tmp_path, capsys):
    path, out = tmp_path / "cut.json", tmp_path / "normal.json"
    path.write_text(json.dumps(DEEP_LIMITED_CUT))
    assert run(["check", "--calculus", "getl", str(path)]) == 0
    assert run(["normalize", "--calculus", "getl", str(path), "--emit-proof", str(out)]) == 0
    assert run(["check", "--calculus", "getl", str(out)]) == 0
    capsys.readouterr()
    steps = {node["rule"] for node in _nodes(json.loads(out.read_text()))}
    assert "limited-cut-left[(x0 & x1 | ~x2) & x3]" in steps


def _nodes(blob):
    todo = [blob]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(node.get("children", ()))


def test_prove_normalize_check_round_trip(tmp_path, capsys):
    # a getl proof whose one step is a wide context cut goes through
    # normalize and check with no flags beyond the calculus
    proof, normal = tmp_path / "proof.json", tmp_path / "normal.json"
    prems = ["-p", "x0 |- x1, x2, x3", "-p", "|- d, x0", "-p", "x1 |- d", "-p", "x2 |- d", "-p", "x3 |- d"]
    assert run(["prove", "--calculus", "getl", "--json", *prems, "--emit-proof", str(proof), "|- d"]) == 0
    assert json.loads(capsys.readouterr().out)["calculus"] == "getl"  # no pool: the calculus itself
    assert run(["normalize", "--calculus", "getl", str(proof), "--emit-proof", str(normal)]) == 0
    assert run(["check", "--calculus", "getl", str(normal)]) == 0
    assert capsys.readouterr().out.endswith("ok\n")
    assert json.loads(normal.read_text()) == json.loads(proof.read_text())  # already normal


@pytest.mark.parametrize("calculus, rule", [
    ("getl", "nope[x0]"),  # an unknown base
    ("getl", "limited-cut-left[p &]"),  # an image that does not parse
    ("getl", "limited-cut-left[x0, x1]"),  # one image too many
    ("getl", "limited-cut-left[x0 & x1"),  # an unclosed bracket
    ("getl", "limited-cut-left[p & q]"),  # not over x0, x1, ... in leaf order
    ("glp", "identity[x0 & x1]"),  # an expansion with two conclusions
])
def test_malformed_step_names_are_not_in_the_calculus(tmp_path, capsys, calculus, rule):
    assert builtin_calculus(calculus).rule(rule) is None
    blob = json.loads(json.dumps(DEEP_LIMITED_CUT))
    blob["rule"] = rule
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert run(["check", "--calculus", calculus, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == f"invalid at []: rule not in calculus: {rule}\n" and err == ""
    assert run(["normalize", "--calculus", calculus, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "rule not in calculus" in err


def test_check_and_normalize_take_no_depth_bound(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(REPEATED_ATOM_CUT))
    for command in ("check", "normalize"):
        assert run([command, "--calculus", "getl", "--depth-bound", "2", str(path)]) == 2
        assert "--depth-bound" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--max-facts", "5"),
    ("check", "--emit-proof", "out.json"),
    ("check", "--format", "dot"),
    ("normalize", "--max-facts", "5"),
])
def test_check_and_normalize_take_no_unread_flags(tmp_path, capsys, command, flag, value):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(REPEATED_ATOM_CUT))
    value = str(tmp_path / value) if flag == "--emit-proof" else value
    assert run([command, "--calculus", "getl", flag, value, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert sorted(os.listdir(tmp_path)) == ["cut.json"]


def test_check_a_permuted_wide_step(tmp_path, capsys):
    proof, _ = wide_context_cut(400, random.Random(400))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(proof_to_dict(proof)))
    assert run(["check", "--calculus", "getl", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_declares_premises_by_their_index(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(REPEATED_ATOM_CUT))
    assert run(["check", "--calculus", "getl", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    # a leaf without an index takes a position no index names
    loose = json.loads(json.dumps(REPEATED_ATOM_CUT))
    del loose["children"][0]["premise_index"]
    loose["children"][1]["premise_index"] = 0
    path.write_text(json.dumps(loose))
    assert run(["check", "--calculus", "getl", str(path)]) == 0
    # an index past the premises is still refused
    loose["children"][1]["premise_index"] = 5
    path.write_text(json.dumps(loose))
    assert run(["check", "--calculus", "getl", str(path)]) == 1
    assert "premise index out of range" in capsys.readouterr().out


def test_getl_verdicts_are_exact(capsys):
    miss = ["-p", "x0 |- x1, x2, x3", "-p", "|- d, x0", "-p", "x1 |- d", "-p", "x2 |- d", "-p", "x3 |- d"]
    assert run(["prove", "--calculus", "getl", *miss, "|- d"]) == 0
    assert capsys.readouterr().out.strip() == "derivable"
    assert run(["prove", "--calculus", "getl", *miss[:-2], "|- d"]) == 1
    assert capsys.readouterr().out.strip() == "not derivable"


def test_gecq_verdicts_are_exact(capsys):
    miss = ["-p", "|- x0, x1, x2, x3, x4"] + [a for i in range(5) for a in ("-p", f"x{i} |-")]
    assert run(["refute", "--calculus", "gecq", *miss]) == 0
    assert capsys.readouterr().out.strip() == "derivable"
    assert run(["refute", "--calculus", "gecq", *miss[:-2]]) == 1
    assert capsys.readouterr().out.strip() == "not derivable"
    assert run(["refute", "--calculus", "gecq", "--json", *miss]) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is True
    for command in (["prove", "--calculus", "gecq", "|- p"], ["refute", "--calculus", "gecq"]):
        assert run([*command, "--depth-bound", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--depth-bound" in err


@pytest.mark.parametrize("logic, phi, psi, calculus, sequent", [
    ("lp", "p & q", "p | r", "glp", "|- p"),
    ("ecq", "p & ~p", "q", "gb", "|-"),
])
def test_interpolate_emits_the_right_half(tmp_path, capsys, logic, phi, psi, calculus, sequent):
    # the proof of psi from the interpolant sequent, in the right logic's calculus
    path = tmp_path / "proof.json"
    assert run(["interpolate", "--logic", logic, phi, psi, "--emit-proof", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sequents"] == [sequent]
    assert run(["check", "--calculus", calculus, "-p", sequent, str(path)]) == 0


def test_interpolate_command(capsys):
    assert run(["interpolate", "--logic", "cl", "p & q", "p | r"]) == 0
    out = capsys.readouterr().out
    assert "interpolant:" in out
    assert run(["interpolate", "--logic", "b", "p", "q"]) == 1
    capsys.readouterr()


def test_interpolate_past_the_valuation_cap(capsys):
    # 13 atoms are past the oracle's cap; the derivation refutes the pair
    # without it, and only verifying an entailed pair needs the oracle
    phi = " & ".join(f"p{i}" for i in range(12))
    assert run(["interpolate", "--logic", "b", phi, "q"]) == 1
    assert capsys.readouterr().err == "no entailment: phi does not entail psi in b\n"
    assert run(["interpolate", "--logic", "b", phi, "p0 | q"]) == 3
    assert capsys.readouterr().err.startswith("resource cap exceeded")


def test_expand_command(capsys):
    assert run(["expand", "|- x ; x, G |- D => G |- D", "x = p & q"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "|- p ; |- q ; p, q, G |- D => G |- D"


def test_expand_from_a_file_and_as_json(tmp_path, capsys):
    path = tmp_path / "rule.txt"
    path.write_text("|- x ; x, G |- D => G |- D\n")
    assert run(["expand", "--json", f"@{path}", "x = p | q"]) == 0
    assert json.loads(capsys.readouterr().out) == ["|- p, q ; p, G |- D ; q, G |- D => G |- D"]


def test_expand_refuses_a_second_image(capsys):
    assert run(["expand", "|- x ; x, G |- D => G |- D", "x = p & q ; x = q"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "second image" in err


def test_expand_refuses_an_entry_without_an_atom(capsys):
    assert run(["expand", "|- x ; x, G |- D => G |- D", " = p"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "without an atom" in err


@pytest.mark.parametrize("sigma", ["G = p", "z = p", "p q = r", "x = p ; G = q"])
def test_expand_refuses_an_entry_naming_no_schema_atom(capsys, sigma):
    # a slot, an atom the rule lacks, two names
    assert run(["expand", "|- x ; x, G |- D => G |- D", sigma]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "not a schema atom" in err


def test_structuralize_command(capsys):
    assert run(["structuralize", "-p", "p & ~p", "q | ~q"]) == 0
    assert capsys.readouterr().out.strip() == "p |- ; |- p => q |- q"
    assert run(["structuralize", "-p", "p", "-p", "~p"]) == 0
    assert capsys.readouterr().out.strip() == "|- p ; p |- => |-"
    assert run(["structuralize", "--json", "-p", "p & ~p", "q | ~q"]) == 0
    assert json.loads(capsys.readouterr().out) == ["p |- ; |- p => q |- q"]


def test_resource_cap_exit_code(capsys):
    code = run(
        [
            "prove", "--calculus", "gk", "--max-facts", "2",
            "-p", "|- p | q | r", "-p", "p |- q, r", "-p", "q |- p", "-p", "r |- q",
            "|- q",
        ]
    )
    assert code == 3
    assert "resource cap" in capsys.readouterr().err


def test_premises_file(tmp_path, capsys):
    path = tmp_path / "prems.txt"
    path.write_text("|- p\n# a comment\n|- ~p | q\n")
    assert run(["prove", "--calculus", "getl", "--premises-file", str(path), "|- q"]) == 0
    capsys.readouterr()


def test_dot_output(tmp_path, capsys):
    out_path = tmp_path / "proof.dot"
    assert run(["prove", "--calculus", "glp", "--format", "dot",
                "--emit-proof", str(out_path), "|- p | ~p"]) == 0
    assert out_path.read_text().startswith("digraph proof {")
    capsys.readouterr()


@pytest.mark.parametrize(
    "blob, command",
    [
        ({"sequent": "|- p"}, "check"),
        ([{"sequent": "|- p", "rule": "premise"}], "normalize"),
        ({"sequent": "|- p | q", "rule": "or-right-intro",
          "children": [{"sequent": "|- p, q", "rule": "premise", "premise_index": "0"}]}, "check"),
    ],
)
def test_malformed_proof_json_is_a_usage_error(tmp_path, capsys, blob, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert run([command, "--calculus", "gk", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed proof node" in err


@pytest.mark.parametrize("command", ["prove", "check", "normalize", "expand"])
def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    # a byte no UTF-8 text holds, in a premises file, a proof JSON, an @FILE rule
    path = tmp_path / "bad.txt"
    if command == "prove":
        path.write_bytes(b"|- p\n|- \xff\n")
        argv = ["prove", "--calculus", "gk", "--premises-file", str(path), "|- p"]
    elif command == "expand":
        path.write_bytes(b"|- x ; x, G |- D => G |- D\xff\n")
        argv = ["expand", f"@{path}", "x = p & q"]
    else:
        path.write_bytes(b'{"sequent": "|- p\xff", "rule": "premise"}')
        argv = [command, "--calculus", "gk", str(path)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "can't decode" in err


def test_format_json_is_rejected(capsys):
    assert run(["prove", "--calculus", "gk", "--format", "json", "|- p | ~p"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--format" in err


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(supercut.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("supercut.cli", "supercut"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "prove", "--calculus", "gk", "-p", "|- p", "|- p | q"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "derivable", module


def test_valuation_cap_exit_code(capsys):
    # 4**11 valuations of each factor of the ecq product: refused before enumerating
    assert run(["semantics", "--logic", "ecq", "-p", "p & q & r & s & t", "u | v | w | x | y | z"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "valuation cap" in err and "ETL4 over 11 atoms" in err
    # 5 to 10 atoms: within the cap, answered
    assert run(["semantics", "--logic", "ecq", "-p", "p & ~p & q", "r | s"]) == 0
    assert run(["semantics", "--logic", "ecq", "-p", "p & q", "r | s | ~t"]) == 1
    assert run(["semantics", "--logic", "ecq", "-p", "p & q & r & s", "t | u | v"]) == 1
    assert run(["semantics", "--logic", "ecq", "-p", "p & q & r & s & t", "-p", "u | v | w | x | y", "y | t"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code, verdict",
    [
        # the matrix oracle evaluates each distinct subformula from an explicit stack
        (["interpolate", "--logic", "k", "p", "~" * 3000 + "p"], 0, "\ncertified: k entailment ok"),
        (["semantics", "--logic", "b", "~" * 3000 + "p"], 1, "invalid\n"),
    ],
    ids=["interpolate", "semantics"],
)
def test_deep_nesting_gets_a_verdict(capsys, argv, code, verdict):
    assert run(argv) == code
    out = capsys.readouterr()
    assert verdict in out.out and out.err == ""


def test_deep_derivable_gets_a_proof(capsys):
    # the proof's eliminations and introductions are built without recursing
    deep = "~" * 3000 + "p"
    assert run(["prove", "--calculus", "gb", "-p", "|- p", "|- " + deep]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "derivable" and out.err == ""
    prems, goal = [ps("|- p")], ps("|- " + deep)
    res = derives(prems, goal, builtin_calculus("gb"))
    assert res.verdict and check(res.proof, res.calculus, prems).ok
    assert res.proof.conclusion == goal and res.proof.size() > 3000


def test_deep_negative_gets_a_verdict(capsys):
    # saturation seeds and the conclusion's At-set walk 3,000 levels without recursing
    assert run(["prove", "--calculus", "gb", "|- " + "~" * 3000 + "p"]) == 1
    out = capsys.readouterr()
    assert out.out.strip() == "not derivable" and out.err == ""


def test_proof_json_past_the_json_nesting_limit(tmp_path, capsys):
    # the proof layer takes proofs of any depth, but the stdlib json reader
    # stops near 1,000 levels of nesting: that is a resource error
    depth = 3000
    path = tmp_path / "deep.json"
    path.write_text(
        '{"sequent": "q |- p", "rule": "weakening-left", "children": [' * depth
        + '{"sequent": "|- p", "rule": "premise", "premise_index": 0}'
        + "]}" * depth
    )
    assert run(["check", "--calculus", "gb", str(path), "-p", "|- p"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nested too deeply" in err


@pytest.mark.parametrize("flag, value", [("--max-facts", "0"), ("--depth-bound", "-1"), ("--max-facts", "x")])
def test_out_of_range_bounds_are_usage_errors(capsys, flag, value):
    assert run(["prove", "--calculus", "gk", flag, value, "|- p | ~p"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


def test_parser_reuse_matches_fresh_processes(capsys):
    # one parser serves every call in a process: repeated -p lists, a flag
    # given then left out, and a usage error must not leak into later calls
    calls = [
        ["prove", "--calculus", "gk", "-p", "|- p", "-p", "|- ~p | q", "--json", "|- q"],
        ["prove", "--calculus", "gk", "|- q"],
        ["semantics", "--logic", "b", "-p", "p", "p | q"],
        ["prove", "--calculus", "nope", "|- q"],
        ["prove", "--calculus", "gb", "-p", "|- p", "--json", "|- p | q"],
        ["semantics", "--logic", "k", "--json", "p"],
        ["refute", "--calculus", "gk", "-p", "|- p"],
    ]
    src = os.path.dirname(os.path.dirname(supercut.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        code = run(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "supercut", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
