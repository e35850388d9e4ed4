"""The package holds only code that the package itself uses.

A module-level function or class of ``src/rectlink`` that no other
top-level statement of the package names is either dead or serves only
tests; test helpers belong under ``tests/`` (``tree_store.py``,
``pocket_doors.py`` and ``closest_pairs.py`` are such).  The exceptions
are the public names in ``rectlink.__all__`` and the short list below.
"""
import ast
from pathlib import Path

import rectlink

PACKAGE = Path(rectlink.__file__).resolve().parent

# package code kept for tests on purpose: the pure-Python oracle is the
# independent reference that the scipy oracle is checked against
TEST_REFERENCES = {"oracle_solve_reference"}


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
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


def test_every_package_definition_is_used_by_the_package():
    unused = unreferenced_definitions(PACKAGE)
    # an exception the package has come to use no longer belongs here
    assert TEST_REFERENCES <= {q.split(".")[1] for q in unused}
    allowed = set(rectlink.__all__) | TEST_REFERENCES
    assert [q for q in unused if q.split(".")[1] not in allowed] == []


def test_the_check_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    return lonely\n\n\n"
        "class Kept:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import used\n\nX = used() and Kept\n")
    assert unreferenced_definitions(tmp_path) == ["a.lonely"]

