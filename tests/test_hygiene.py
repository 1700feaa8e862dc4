"""Library lint kept without a linter: every name a module of the package
imports is used in that module, and every function, class or method it
defines is referenced by code in some library module.  The package
``__init__`` is exempt from the first scan, because its imports are the
public re-exports, but those imports are not references in the second: a
re-export alone does not keep a definition alive, so API that only tests
call has no place in the library, and a top-level function or class
must be referenced outside its own body.  Every command-line option the
CLI declares is read by it, so a flag whose value nothing uses cannot
linger.
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


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Functions, classes and methods defined in `sources` (module name ->
    text) whose name is never referenced, as a name or an attribute, in
    any of them; for a top-level function or class only references outside
    its own body count, so neither recursion nor its decorator keeps it
    alive.  Importing a name is not a reference, so a re-export in
    ``__init__`` alone leaves it unreferenced; dunder methods are called
    by the language."""
    defined: list[tuple[str, int, str, set]] = []
    # each name -> the top-level definitions holding a reference to it
    # (None for the module's other code)
    holders: dict[str, set] = {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                owner = (module, top.name)
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if not (node.name.startswith("__")
                            and node.name.endswith("__")):
                        own = {owner} if node is top else set()
                        defined.append((module, node.lineno, node.name, own))
                elif isinstance(node, ast.Name):
                    holders.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    holders.setdefault(node.attr, set()).add(owner)
    return [f"{module} line {line}: {name}"
            for module, line, name, own in defined
            if not holders.get(name, set()) - own]


def test_dead_definitions_are_detected():
    sources = {
        "__init__": "from .a import exported, reexported\n",
        "a": ("def exported():\n    return helper()\n"
              "def helper():\n    return Box().size\n"
              "def orphan():\n    pass\n"
              "class Box:\n    def __init__(self):\n        pass\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    def unused(self):\n        pass\n"
              "def reexported():\n    pass\n"
              "@functools.cache\ndef spin(k):\n    return spin(k - 1)\n"),
        "b": "from .a import exported\nexported()\n",
    }
    assert dead_definitions(sources) == ["a line 5: orphan",
                                         "a line 13: unused",
                                         "a line 15: reexported",
                                         "a line 18: spin"]


def test_library_defines_nothing_unreferenced():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert "__init__" in sources
    assert dead_definitions(sources) == []


def unread_options(source: str) -> list[str]:
    """The destination of every ``add_argument`` call in `source` that is
    never read as ``args.<dest>`` or ``getattr(args, "<dest>", ...)``.  The
    destination is the ``dest`` keyword, or else the first long option (or
    the first option) without its dashes, other dashes made underscores,
    as argparse derives it."""
    declared: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "getattr" and \
                len(node.args) >= 2 and isinstance(node.args[0], ast.Name) \
                and node.args[0].id == "args" and \
                isinstance(node.args[1], ast.Constant):
            read.add(node.args[1].value)
        elif isinstance(func, ast.Attribute) and func.attr == "add_argument":
            dest = next((k.value.value for k in node.keywords
                         if k.arg == "dest"), None)
            if dest is None:
                flags = [a.value for a in node.args]
                flag = next((f for f in flags if f.startswith("--")),
                            flags[0])
                dest = flag.lstrip("-").replace("-", "_")
            declared.setdefault(dest, node.lineno)
    return [f"line {line}: {dest}" for dest, line in declared.items()
            if dest not in read]


def test_unread_options_are_detected():
    source = ("def build(p):\n"
              "    p.add_argument('--n', type=int)\n"
              "    p.add_argument('--t-end', dest='t_end')\n"
              "    p.add_argument('--dry-run', action='store_true')\n"
              "    p.add_argument('--trials', type=int, default=3)\n"
              "    p.add_argument('-v', '--verbose')\n"
              "def run(args):\n"
              "    return args.n, args.t_end, getattr(args, 'dry_run', 0)\n")
    assert unread_options(source) == ["line 5: trials", "line 6: verbose"]


def test_cli_reads_every_option():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "add_argument" in source
    assert unread_options(source) == []
