"""The package holds only code that the package itself uses.

A module-level function or class of ``src/rectlink`` that no other
top-level statement of the package names is either dead or serves only
tests; test helpers belong under ``tests/`` (``tree_store.py``,
``pocket_doors.py``, ``closest_pairs.py``, ``shapes.py`` and
``oracle_reference.py`` are such).  The only exceptions are the public names
in ``rectlink.__all__``.  The same holds, with no exceptions, for every
method of a package class that is not a dunder: some code of the package
other than the method itself must name it.
"""
import ast
from collections import Counter
from pathlib import Path

import rectlink

PACKAGE = Path(rectlink.__file__).resolve().parent


def _names(node: ast.AST) -> Counter:
    """How often the code under ``node`` names each name."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def unreferenced_definitions(package: Path) -> list[str]:
    """``module.name`` of every module-level function or class that no
    other top-level statement of the package names."""
    defs: list[tuple[str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node))
    named = [(node, _names(node)) for node in statements]
    return [f"{mod}.{d.name}" for mod, d in defs
            if not any(d.name in names for node, names in named if node is not d)]


def unreferenced_methods(package: Path) -> list[str]:
    """``module.Class.method`` of every non-dunder method of a module-level
    class that no code of the package outside the method itself names."""
    total: Counter = Counter()
    methods: list[tuple[str, str, ast.stmt]] = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        total.update(_names(tree))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for d in node.body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (d.name.startswith("__") and d.name.endswith("__")):
                    methods.append((path.stem, node.name, d))
    return [f"{mod}.{cls}.{d.name}" for mod, cls, d in methods
            if total[d.name] == _names(d)[d.name]]


def test_every_package_definition_is_used_by_the_package():
    unused = unreferenced_definitions(PACKAGE)
    allowed = set(rectlink.__all__)
    assert [q for q in unused if q.split(".")[1] not in allowed] == []


def test_the_check_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    return lonely\n\n\n"
        "class Kept:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import used\n\nX = used() and Kept\n")
    assert unreferenced_definitions(tmp_path) == ["a.lonely"]



def test_every_package_method_is_used_by_the_package():
    assert unreferenced_methods(PACKAGE) == []


def test_the_check_sees_an_unused_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __init__(self):\n        self.x = 1\n\n"
        "    def used(self):\n        return self.x\n\n"
        "    def lonely(self):\n        return self.lonely()\n\n"
        "    @property\n    def seen(self):\n        return 2\n")
    (tmp_path / "b.py").write_text("from a import A\n\nY = A().used() + A().seen\n")
    assert unreferenced_methods(tmp_path) == ["a.A.lonely"]
