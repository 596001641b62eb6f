"""Every name the package exports has a caller outside the tests.

A name counts as reached when it appears as an AST name, attribute or
imported name in a `resforge` module other than `__init__`, or in a file
under `demos/` or `bench/`.  A name that only tests reach is API that no
route, suite, CLI command, demo or benchmark uses.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "resforge")


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _exported():
    names = set()
    for node in ast.walk(_tree(os.path.join(PKG, "__init__.py"))):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(paths):
    seen = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                seen.update(a.name.split(".")[-1] for a in node.names)
    return seen


def test_every_export_has_a_caller_outside_the_tests():
    paths = [p for p in glob.glob(os.path.join(PKG, "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(ROOT, "demos", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "bench", "*.py"))
    exported = _exported()
    assert "crosscheck" in exported
    assert sorted(exported - _used(paths)) == []
