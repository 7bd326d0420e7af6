"""Every name a library module imports is used in it.

No linter ships with the test environment, so this walks each module's
syntax tree: a name bound by an import statement must appear as a name
somewhere in the module, or be listed in its ``__all__`` (the package's
re-exports).  ``from __future__`` imports bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mixedmop")
                 .glob("*.py"))


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
