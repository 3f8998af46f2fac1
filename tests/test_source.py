"""Rules the package sources keep."""

from __future__ import annotations

import ast
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
