"""Every name a package module imports is used in that module."""

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
