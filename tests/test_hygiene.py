"""Library lint kept without a linter: every name a module of the package
imports is used in that module.  The package ``__init__`` is exempt,
because its imports are the public re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gnlab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_detected():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom math import pi as PI, tau\n"
              "print(sys.argv, PI)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: tau"]


def test_library_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = [f"{p.name} {entry}" for p in modules
              for entry in unused_imports(p.read_text(encoding="utf-8"))]
    assert unused == []
