"""Every module of the package uses each name it imports, each private
module-level function is used somewhere in the package, no function
recurses that is not on the list of those that still do, no module
uses another's private names beyond the list of those that still do, no
module sets slots by hand more often than the list says, and importing
the package loads none of the modules kept out of start-up."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import supercut

PACKAGE = pathlib.Path(supercut.__file__).parent
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations += [a.annotation for a in args]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # forward references written as strings
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _references(node: ast.AST) -> Counter:
    """Names read, attributes taken and names imported under ``node``."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def test_no_unused_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere: Counter = Counter()
    for tree in trees.values():
        everywhere += _references(tree)
    unused = [
        f"{name}:{node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        # a call from its own body does not count
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert not unused, f"private functions nothing in the package uses: {', '.join(unused)}"


# Functions that still call themselves, by module and qualified name: only
# engine's _join.rec, which is bounded by the size of a rule. A function made
# iterative leaves this list, and a new self-recursive function fails the
# test below.
STILL_RECURSIVE = {
    "engine": {"_join.rec"},
}


def _self_recursive(node: ast.AST, qualifier: str = "", in_class: bool = False) -> set[str]:
    """Qualified names of the module-level and nested functions under node
    whose body, nested functions included, calls the function's own name.
    Methods are not counted: a bare name in a method does not call it."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = qualifier + child.name
            if not in_class and any(
                isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == child.name
                for sub in ast.walk(child)
            ):
                out.add(name)
            out |= _self_recursive(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            out |= _self_recursive(child, qualifier + child.name + ".", in_class=True)
        else:
            out |= _self_recursive(child, qualifier, in_class)
    return out


def test_recursion_ratchet():
    found = {path.stem: _self_recursive(ast.parse(path.read_text())) for path in MODULES}
    found = {module: names for module, names in found.items() if names}
    assert found == STILL_RECURSIVE, "self-recursive functions differ from STILL_RECURSIVE"


# Uses of another module's private names, by the module that uses them:
# ``M._x`` through a module imported as M, or ``from .m import _x``, once
# per use. A private name that another module needs is a candidate for a
# public helper; the list only shrinks, and a new use fails the test below.
CROSS_MODULE_PRIVATE = {
    "proofs": ["syntax._parse_sequent"],
    "rewrite": ["proofs._check_matches"],
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(tree: ast.Module) -> list[str]:
    """Each ``module._name`` of another package module that tree uses."""
    aliases = {}  # the local name of each package module imported whole
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    out.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
        ):
            out.append(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(out)


def test_private_name_ratchet():
    found = {path.stem: _private_uses(ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))}
    found = {module: uses for module, uses in found.items() if uses}
    assert found == CROSS_MODULE_PRIVATE, "cross-module uses of private names differ from CROSS_MODULE_PRIVATE"


# Slot setters outside ``syntax.Value``, by module: each call of
# ``object.__setattr__`` and each slot descriptor's ``__set__`` taken.
# ``Value.__init__`` sets a class's fields from its arguments; a class sets
# slots by hand only where that keeps a hot constructor fast (formulas,
# sequents, proofs) or for slots that are no fields. The counts only shrink,
# and a new setter fails the test below.
SLOT_SETTERS = {"matrices": 1, "proofs": 5, "rules": 1, "syntax": 7}


def _slot_setters(tree: ast.Module) -> int:
    in_value = {id(sub) for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Value"
                for sub in ast.walk(node)}
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and id(node) not in in_value
        and (node.attr == "__set__"
             or node.attr == "__setattr__" and isinstance(node.value, ast.Name) and node.value.id == "object")
    )


def test_slot_setter_ratchet():
    found = {path.stem: _slot_setters(ast.parse(path.read_text())) for path in MODULES}
    assert {module: n for module, n in found.items() if n} == SLOT_SETTERS, "slot setters differ from SLOT_SETTERS"


# Standard modules that start-up does without: ``dataclasses`` alone pulls
# in the other four, and importing them all takes most of the time it takes
# to import the package.
KEPT_OUT = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of the modules that tree imports from outside the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    importers = sorted(p.name for p in PACKAGE.glob("*.py") if "dataclasses" in _imported_modules(ast.parse(p.read_text())))
    assert not importers, f"modules importing dataclasses: {', '.join(importers)}"


def test_cli_import_leaves_out_slow_modules():
    # -S: without site, which may import some of them itself
    code = "import sys, supercut.cli; print(' '.join(m for m in %r if m in sys.modules))" % (KEPT_OUT,)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
