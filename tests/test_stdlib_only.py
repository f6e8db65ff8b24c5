"""The runtime imports nothing outside the standard library, and its
records are named tuples, so no CLI start loads dataclasses."""

import ast
import os
import pathlib
import subprocess
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


def test_no_module_imports_dataclasses():
    # records are named tuples: dataclasses costs ~10 ms of every CLI start
    importing = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "dataclasses" in absolute_imports(path)]
    assert importing == []


def test_cli_import_leaves_dataclasses_unloaded():
    code = ("import sys, calogero_ss.cli; "
            "print('dataclasses' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
