"""No package module imports a name it never uses.

There is no linter in the Tier-1 run, so this stands in for the one rule
of it that a refactor most often leaves broken: an import left behind.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "plantagents").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports, at any depth, and never reads; a `from
    __future__` import binds no name and is skipped."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds `a`, which `a.b.c` reads as a Name
            imported += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_no_name_it_never_uses(path):
    assert unused_imports(path.read_text("utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import functools\n", ["functools"]),
    ("from urllib.parse import urlsplit\n", ["urlsplit"]),
    ("import os.path as osp\nosp.join\n", []),
    ("import urllib.request\nurllib.request.urlopen\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n", ["json"]),
    ("import json\ndef f():\n    return json\n", []),
])
def test_unused_imports_finds_each_name_never_read(source, unused):
    assert unused_imports(source) == unused
