"""Every name a library module imports is used in it, and every top-level
function and class it defines is used somewhere.

No linter ships with the test environment, so this walks each module's
syntax tree: a name bound by an import statement must appear as a name
somewhere in the module, or be listed in its ``__all__`` (the package's
re-exports).  ``from __future__`` imports bind no name and are skipped.
A top-level definition must be referenced (as a name, an attribute, an
imported name or a string such as an ``__all__`` entry) in the library or
in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mixedmop").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
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
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_sources_found():
    assert {"__init__.py", "cli.py", "rh.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import pi, tau as t\n"
              "__all__ = ['pi']\n")
    assert unused_imports(source) == ["os (line 2)", "t (line 3)"]


def referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def unreferenced_definitions(library: dict[str, str], users: list[str]
                             ) -> list[str]:
    """Top-level functions and classes of the library modules (name ->
    source) that nothing outside their own body references, in the library
    or in the user sources."""
    used = set().union(*(referenced_names(ast.parse(s)) for s in users))
    definitions = []
    for module, source in library.items():
        for node in ast.parse(source).body:
            names = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((module, node.name))
                names.discard(node.name)
            used |= names
    return [f"{module}.{name}" for module, name in definitions
            if name not in used]


def test_every_definition_is_referenced():
    library = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    tests = [p.read_text(encoding="utf-8") for p in TESTS]
    assert unreferenced_definitions(library, tests) == []


def test_detects_an_unreferenced_definition():
    library = {"core": ("def used():\n    return helper()\n\n"
                        "def helper():\n    return 1\n\n"
                        "def left_behind(cdf):\n    return left_behind\n\n"
                        "class Exported:\n    pass\n\n"
                        "__all__ = ['Exported']\n"),
               "cli": "from .core import used\n"}
    assert unreferenced_definitions(library, []) == ["core.left_behind"]
    assert unreferenced_definitions(library, ["core.left_behind(1)"]) == []
