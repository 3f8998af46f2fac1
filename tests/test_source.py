"""Rules the package sources keep."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hamosc"


def test_package_has_no_assert_statements():
    # an invariant is an explicit check that raises: python -O strips
    # every assert statement
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_level_imports(tree):
    """The modules a file imports outside any function or class body."""
    pending, names = list(tree.body), []
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending += [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
    return names


def test_package_imports_no_scipy_at_module_level():
    # importing hamosc costs numpy only: scipy loads where a table is read
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _module_level_imports(ast.parse(path.read_text(), filename=str(path)))
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert found == []


def test_fresh_import_loads_no_scipy():
    code = (
        "import sys, hamosc, hamosc.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"
