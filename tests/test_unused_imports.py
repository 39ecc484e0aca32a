"""Every top-level import in src/deligne_kit/ and tests/ is used in its
file.  The package's __init__.py imports only to re-export, so it is
skipped.  A name counts as used when the file reads it, in code or in a
string annotation."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in list((ROOT / "src" / "deligne_kit").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            sub = ast.parse(ann.value, mode="eval")
            read |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from json import dumps, loads\n"
        "def f(x: 'Thing') -> None:\n"
        "    return dumps(os.sep)\n"
        "from thing import Thing\n"
    )
    assert unused_imports(source) == ["osp", "loads"]
