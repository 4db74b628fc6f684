"""Every name a package module imports is used in that module, every
private helper the package defines is used somewhere in it, and no
concatenation is reduced from scratch."""

import ast
from pathlib import Path

import grigorchuk

_MODULES = sorted(p for p in Path(grigorchuk.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    assert {p.name for p in _MODULES} >= {"cli.py", "conjugacy.py",
                                          "word_problem.py"}
    unused = {p.name: _unused_imports(p.read_text()) for p in _MODULES}
    assert {name: got for name, got in unused.items() if got} == {}


def _private_defs(tree) -> dict[str, int]:
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _referenced(tree) -> set[str]:
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_no_unused_private_helpers():
    trees = {p.name: ast.parse(p.read_text()) for p in _MODULES}
    used = set().union(*(_referenced(tree) for tree in trees.values()))
    assert "_q_rec" in used and "_trivial_reduced" in used
    unused = [f"{name}: {helper} (line {line})"
              for name, tree in trees.items()
              for helper, line in _private_defs(tree).items()
              if helper not in used]
    assert unused == []


def _concatenations_reduced(tree) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "reduce_word"
            and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
                    for arg in node.args)]


def test_no_reduction_of_a_concatenation():
    # the reduced product of reduced words is join_reduced, which only
    # rewrites at the seam
    assert _concatenations_reduced(ast.parse("reduce_word(u + v)")) == [1]
    found = {p.name: _concatenations_reduced(ast.parse(p.read_text()))
             for p in _MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
