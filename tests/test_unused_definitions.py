"""Every top-level function and class in src/deligne_kit/, and every method
of a top-level class other than a dunder, is read somewhere outside its own
definition: in src/, tests/, perfbench/ or README.md.  An
import is not a read, nor is a docstring; a name counts as read where a
Python file loads it, takes it as an attribute, or spells it in a string
constant (perfbench names the functions it wraps in strings), and where
README.md mentions it as a word."""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deligne_kit"
SOURCES = sorted(
    p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
)
DEFINING = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                yield body[0].value


@functools.cache
def reads(path: Path):
    """(name, line) for each name the file reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = {id(c) for c in _docstrings(tree)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skip):
            out += [(w, node.lineno)
                    for w in re.findall(r"[A-Za-z_]\w*", node.value)]
    return out


def _span(node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return node.name, first, node.end_lineno


def definitions(source: str):
    """(name, first line, last line) of each top-level function and class,
    and of each method of a top-level class whose name is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield _span(node)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, functions)
                        and not re.fullmatch(r"__\w+__", member.name)):
                    yield _span(member)


def unread(defining: Path, sources, readme: str):
    """The definitions of `defining` that no source reads outside their own
    lines and that README does not mention."""
    found = set()
    own = list(definitions(defining.read_text(encoding="utf-8")))
    for path in sources:
        for name, line in reads(path):
            for own_name, first, last in own:
                if name == own_name and not (
                        path == defining and first <= line <= last):
                    found.add(name)
    mentioned = set(re.findall(r"[A-Za-z_]\w*", readme))
    return [n for n, _, _ in own if n not in found | mentioned]


@pytest.mark.parametrize("path", DEFINING,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_definition_is_read(path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread(path, SOURCES, readme) == []


def test_checker_finds_unread_definitions(tmp_path):
    defining = tmp_path / "mod.py"
    defining.write_text(
        '"""helper is documented here."""\n'
        "import os\n"
        "def helper():\n"
        "    return helper()\n"
        "def used():\n"
        "    return 1\n"
        "class Named:\n"
        "    def __init__(self):\n"
        "        self.read()\n"
        "    def read(self):\n"
        "        return 1\n"
        "    def unread(self):\n"
        "        return self.unread\n"
        "def mentioned():\n"
        "    pass\n"
        "x = used()\n"
    )
    other = tmp_path / "other.py"
    other.write_text(
        "from mod import helper, mentioned\n"
        "SPANS = ('Named.__init__',)\n"
    )
    assert unread(defining, [defining, other], "call `mentioned`") == [
        "helper", "unread"]
