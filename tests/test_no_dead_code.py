"""No dead imports, helpers or exception classes under src/: every module
is walked as an AST.  A name a module imports must be read in that module
(the package ``__init__`` only re-exports, so it is skipped), and a
module-level ``_private`` function or class, or an exception class, must be
referenced somewhere in src/ outside its own definition.  A public
module-level function or class must be named outside its definition and
outside tests/: referred to or imported by a module in src/ (the package
``__init__`` included), or named as a word in the text of a perfbench/
file, a demo, README.md or the CI workflow.  Methods are not scanned, since
one method name (``zero``, ``order``, ``render``) is defined on several
classes.  No parameter of a module-level ``_private`` function may take one
value from every call: a literal, or a module-level name, that all of its
calls (two or more) pass."""

import ast
import builtins
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "crystaljet"
MODULES = sorted(SRC.rglob("*.py"))
PACKAGE_INIT = PACKAGE / "__init__.py"
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
# the files outside src/ and tests/ whose text can name a public definition
CALLERS = sorted(path for path in [*(ROOT / "perfbench").rglob("*"), *(ROOT / "demos").rglob("*.py"),
                                   ROOT / "README.md", ROOT / ".github" / "workflows" / "tier1.yml"]
                 if path.is_file() and "__pycache__" not in path.parts)


def unread_imports(tree):
    """(line, name) of each imported name that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def private_definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node


def referenced_names(tree):
    """How often each name is read, as a name or an attribute, in the tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def exception_definitions(trees):
    """(path, node) of each module-level exception class: one whose base is
    a built-in exception or another such class, in any module."""
    names = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    classes = [(path, node) for path, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    found = []
    while True:
        new = [(path, node) for path, node in classes if node.name not in names
               and any(isinstance(base, ast.Name) and base.id in names for base in node.bases)]
        if not new:
            return found
        names.update(node.name for _, node in new)
        found += new


def unreferenced(trees, definitions):
    """(path, line, name) of each of the (path, node) definitions that no
    module refers to outside the definition itself."""
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    return [(path, node.lineno, node.name) for path, node in definitions
            if everywhere[node.name] == referenced_names(node)[node.name]]


def imported_names(tree):
    """How often each name is imported by name (``from m import name``)."""
    return Counter(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for alias in node.names)


def unnamed_public(trees, texts):
    """(path, line, name) of each public module-level function or class
    that no module refers to or imports outside the definition itself, and
    that none of the texts names as a word."""
    everywhere = sum((referenced_names(tree) + imported_names(tree) for tree in trees.values()),
                     Counter())
    return [(path, node.lineno, node.name) for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and everywhere[node.name] == referenced_names(node)[node.name]
            and not any(re.search(rf"\b{node.name}\b", text) for text in texts)]


def unreferenced_private(trees):
    return unreferenced(trees, [(path, node) for path, tree in trees.items()
                                for node in private_definitions(tree)])


def module_names(tree):
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def passed_value(call, position, name, globals_):
    """What the call passes for the parameter at that position (None for
    keyword-only) and of that name: a literal or a module-level name, or
    None for anything else, an omitted argument or an unpacked one."""
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    if position is not None and position < len(call.args) and not starred:
        value = call.args[position]
    else:
        value = next((kw.value for kw in call.keywords if kw.arg == name), None)
    if isinstance(value, ast.Constant):
        return ("literal", repr(value.value))
    if isinstance(value, ast.Name) and value.id in globals_:
        return ("name", value.id)
    return None


def one_value_parameters(trees):
    """(path, line, function, parameter) of each parameter of a module-level
    ``_private`` function to which every call in the trees, at least two,
    passes the same literal or module-level name.  A function that is also
    referred to other than by a call is skipped: its callers are not known."""
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    calls = {}
    for tree in trees.values():
        globals_ = module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append((node, globals_))
    found = []
    for path, tree in trees.items():
        for node in private_definitions(tree):
            sites = calls.get(node.name, [])
            outside = everywhere[node.name] - referenced_names(node)[node.name]
            if not isinstance(node, ast.FunctionDef) or len(sites) < 2 or outside != len(sites):
                continue
            positional = node.args.posonlyargs + node.args.args
            params = [(i, a.arg) for i, a in enumerate(positional)]
            params += [(None, a.arg) for a in node.args.kwonlyargs]
            for position, name in params:
                values = {passed_value(call, position, name, globals_) for call, globals_ in sites}
                if len(values) == 1 and None not in values:
                    found.append((path, node.lineno, node.name, name))
    return found


def test_the_walks_find_unread_imports_and_unreferenced_helpers():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\nfrom math import gcd, lcm\n"
                     "def _used():\n    return gcd(1, 2)\n"
                     "def _recursive(n):\n    return _recursive(n - 1) if n else regex\n"
                     "class _Unused:\n    pass\n"
                     "class _Method:\n    pass\n"
                     "def api():\n    return _used(), object()._Method\n")
    assert unread_imports(tree) == [(2, "os"), (4, "lcm")]
    assert [name for _, _, name in unreferenced_private({"m": tree})] == ["_recursive", "_Unused"]


def test_the_walk_finds_exception_classes_that_nothing_names():
    tree = ast.parse("class Unraised(ValueError):\n    pass\n"
                     "class Base(KeyError):\n    pass\n"
                     "class Leaf(Base):\n    pass\n"
                     "class Plain:\n    pass\n"
                     "def api():\n    raise Leaf()\n")
    found = exception_definitions({"m": tree})
    assert [node.name for _, node in found] == ["Unraised", "Base", "Leaf"]
    assert [name for _, _, name in unreferenced({"m": tree}, found)] == ["Unraised"]


def test_the_walk_finds_public_definitions_that_nothing_names():
    lib = ast.parse("def imported():\n    pass\n"
                    "class Read:\n    pass\n"
                    "def in_text():\n    pass\n"
                    "def recursive(n):\n    return recursive(n - 1) if n else Read\n"
                    "class Unnamed:\n    def method(self):\n        return Unnamed\n"
                    "def _private():\n    pass\n"
                    "def twin():\n    pass\n")
    user = ast.parse("from lib import imported\n")
    texts = ["run in_text() first", "twin_a and a_twin are other names"]
    found = unnamed_public({"lib": lib, "user": user}, texts)
    # a method is not scanned, and _private is the other walk's
    assert [name for _, _, name in found] == ["recursive", "Unnamed", "twin"]


def test_the_walk_finds_a_parameter_that_every_call_gives_one_value():
    tree = ast.parse("LIMIT = 3\n"
                     "def _bounded(n, limit, error, *, strict):\n    return n\n"
                     "def _once(n, flag):\n    return n\n"
                     "def _escapes(n, flag):\n    return n\n"
                     "def api(x):\n"
                     "    _once(x, True)\n"
                     "    _escapes(x, True), _escapes(x, True), [_escapes]\n"
                     "    _bounded(x, LIMIT, ValueError, strict=False)\n"
                     "    return _bounded(2, LIMIT, error=ValueError, strict=x)\n")
    found = one_value_parameters({"m": tree})
    # x is a local, 2 another literal and ValueError no module-level name of
    # m; _once has one call, and _escapes is also passed on as a value
    assert [(name, param) for _, _, name, param in found] == [("_bounded", "limit")]


@pytest.mark.parametrize("path", [p for p in MODULES if p != PACKAGE_INIT],
                         ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_read(path):
    unread = unread_imports(TREES[path])
    assert not unread, f"{path.relative_to(SRC)}: imported and never read: {unread}"


def test_every_private_helper_is_referenced():
    dead = [f"{path.relative_to(SRC)}:{line} {name}"
            for path, line, name in unreferenced_private(TREES)]
    assert not dead, f"private helpers that nothing in src/ refers to: {dead}"


def test_every_exception_class_is_named():
    dead = [f"{path.relative_to(SRC)}:{line} {name}"
            for path, line, name in unreferenced(TREES, exception_definitions(TREES))]
    assert not dead, f"exception classes that nothing in src/ raises or names: {dead}"


def test_no_parameter_of_a_private_function_takes_one_value():
    fixed = [f"{path.relative_to(SRC)}:{line} {name}({param})"
             for path, line, name, param in one_value_parameters(TREES)]
    assert not fixed, f"parameters that every call passes the same value: {fixed}"


def test_every_public_definition_is_named_outside_the_tests():
    texts = [path.read_text(errors="replace") for path in CALLERS]
    dead = [f"{path.relative_to(PACKAGE)} {name}" for path, _, name in unnamed_public(TREES, texts)]
    assert not dead, f"public definitions that only tests/ names: {dead}"
