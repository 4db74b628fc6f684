"""Every name a package module imports is used in that module, every
private helper the package defines is used somewhere in it, every public
function or class is exported or used, no concatenation is reduced from
scratch, no package code loads numpy, the tree-action oracle included,
and the decisions load no dataclasses, inspect or ast."""

import ast
import os
import subprocess
import sys
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


def _unused_public_defs(trees, exported) -> list[str]:
    """Module-level public functions and classes that are not exported
    and that no other top-level statement of the package refers to;
    cli.main is the console-script entry."""
    tops = [(node, _referenced(node))
            for tree in trees.values() for node in tree.body]
    return [f"{name}: {node.name} (line {node.lineno})"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in exported
            and (name, node.name) != ("cli.py", "main")
            and not any(node.name in refs
                        for other, refs in tops if other is not node)]


def test_public_names_are_exported_or_used():
    sample = {"m.py": ast.parse("def f(): pass\ndef g(): return g()\n"
                                "def h(): pass\nclass K: pass\nh()\n")}
    assert _unused_public_defs(sample, {"K"}) == ["m.py: f (line 1)",
                                                  "m.py: g (line 2)"]
    init = ast.parse((_MODULES[0].parent / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {p.name: ast.parse(p.read_text()) for p in _MODULES}
    assert _unused_public_defs(trees, exported) == []


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


# Run in a fresh interpreter: set-up, the decisions, the one-shot CLI
# verbs and the bench fit, then the tree-action oracle.  The last line
# printed says whether numpy was loaded before and after the oracle,
# then which of dataclasses, inspect and ast set-up and the decisions
# loaded ("-" for none).
_NUMPY_FREE_SCRIPT = """
import sys

from grigorchuk import (is_trivial, is_trivial_at_depth, norm, q_set,
                        shared_context, split, standard_lift_table,
                        standard_quotient)
from grigorchuk.bench import BenchRecord, fit_exponent
from grigorchuk.cli import main

standard_quotient()
standard_lift_table()
shared_context()
assert q_set("ab", "ba")
assert is_trivial("adadadad")
assert tuple(split("abab")) == ("ca", "ac")
assert norm("abc").sign() == 1
heavy = sorted({"dataclasses", "inspect", "ast"} & set(sys.modules))
for argv in (["reduce", "abcd"], ["wp", "adadadad"], ["split", "abab"],
             ["norm", "abc"], ["coset", "ab"], ["conj", "ab", "ba"]):
    assert main(argv) == 0, argv
records = [BenchRecord(16, 5, 3, 0.5), BenchRecord(32, 9, 4, 1.5)]
assert fit_exponent(records, "tree_size") > 0
before = "numpy" in sys.modules
trivial = is_trivial_at_depth("adadadad", 7)
print(before, trivial, "numpy" in sys.modules, ",".join(heavy) or "-")
"""


def test_no_package_code_loads_numpy():
    root = str(Path(grigorchuk.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    before, trivial, after, heavy = done.stdout.splitlines()[-1].split()
    assert before == "False", "numpy loaded before the tree-action oracle"
    assert trivial == "True"
    assert after == "False", "the tree-action oracle loaded numpy"
    assert heavy == "-", f"set-up and the decisions loaded {heavy}"
