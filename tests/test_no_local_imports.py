"""Imports sit at module top: every module under src/ is walked as an AST,
and an import inside a function fails the test with its file and line."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


def test_the_walk_finds_imports_in_functions_only():
    tree = ast.parse("import os\n"
                     "def f():\n    import re\n"
                     "class C:\n    def m(self):\n        if self:\n            from . import x\n"
                     "async def g():\n    from math import gcd\n")
    assert sorted(set(local_imports(tree))) == [3, 7, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_imports_at_top(path):
    lines = sorted(set(local_imports(ast.parse(path.read_text(), filename=str(path)))))
    assert not lines, f"{path.relative_to(SRC)}: import inside a function at line(s) {lines}"
