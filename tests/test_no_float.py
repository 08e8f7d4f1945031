"""No floating point in the library: every module under src/ is walked as
an AST, and a float or complex literal, or a call to ``float`` or
``complex``, fails the test with its file and line."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def float_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            yield node.lineno, f"{node.func.id}(...)"


def test_the_walk_finds_every_kind_of_site():
    tree = ast.parse("a = 1.5\nb = 2j\nc = float(x)\nd = complex(1, 2)\ne = 3\n")
    assert [line for line, _ in float_sites(tree)] == [1, 2, 3, 4]


def test_there_are_modules_to_check():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_floating_point(path):
    sites = list(float_sites(ast.parse(path.read_text(), filename=str(path))))
    assert not sites, f"{path.relative_to(SRC)}: " + ", ".join(
        f"line {line} {what}" for line, what in sites)
