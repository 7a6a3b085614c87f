"""No package module imports a name it never uses, keeps a private name it
never reads, or catches `TypeError` or `AttributeError`.

There is no linter in the Tier-1 run, so this stands in for the two rules
of it that a refactor most often leaves broken: an import left behind, and
a private helper or constant whose last reader went.  The third rule keeps
catch-alls away from JSON reads: every loader checks a value's JSON type
through `plantagents.jsonread`, so no read can raise either error.
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


def orphaned_private_names(source: str) -> list[str]:
    """The module-level `_name`s `source` defines (a function, a class or an
    assigned constant) and never reads; a dunder name is not private."""
    tree = ast.parse(source)
    defined: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_keeps_no_private_name_it_never_reads(path):
    assert orphaned_private_names(path.read_text("utf-8")) == []


@pytest.mark.parametrize("source, orphaned", [
    ("def _require(): pass\n", ["_require"]),
    ("class _Stream: pass\n", ["_Stream"]),
    ("_JSON_TYPES = {}\n", ["_JSON_TYPES"]),
    ("_a, (_b, c) = 1, (2, 3)\n", ["_a", "_b"]),
    ("_TIMEOUT: float = 1.0\n", ["_TIMEOUT"]),
    ("_X = 1\ndef f():\n    return _X\n", []),
    ("def _f(): pass\nHOOK = _f\n", []),
    ("def f():\n    _local = 1\n", []),
    ("__all__ = []\n", []),
])
def test_orphaned_private_names_finds_each_one_never_read(source, orphaned):
    assert orphaned_private_names(source) == orphaned


def caught_type_errors(source: str) -> list[int]:
    """The line of each `except` in `source` that names `TypeError` or
    `AttributeError`, alone or in a tuple."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ExceptHandler)
            and node.type is not None
            and any(isinstance(n, ast.Name) and n.id in ("TypeError", "AttributeError") for n in ast.walk(node.type))]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_catches_no_type_or_attribute_error(path):
    assert caught_type_errors(path.read_text("utf-8")) == []


@pytest.mark.parametrize("source, lines", [
    ("try:\n    f()\nexcept TypeError:\n    pass\n", [3]),
    ("try:\n    f()\nexcept (KeyError, AttributeError) as exc:\n    pass\n", [3]),
    ("def g():\n    try:\n        f()\n    except (ValueError, TypeError):\n        pass\n", [4]),
    ("try:\n    f()\nexcept ValueError:\n    pass\nexcept:\n    raise\n", []),
    ("try:\n    f()\nexcept (OSError, json.JSONDecodeError):\n    pass\n", []),
])
def test_caught_type_errors_finds_each_except_that_names_one(source, lines):
    assert caught_type_errors(source) == lines
