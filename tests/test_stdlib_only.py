"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
import sys

import calogero_ss

PACKAGE = pathlib.Path(calogero_ss.__file__).parent


def absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    outside = [(path.name, name) for path in modules
               for name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
