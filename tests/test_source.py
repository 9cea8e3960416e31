"""Invariants of the package source itself."""

import ast
from pathlib import Path

import prmw


def test_no_assert_in_package():
    # python -O strips asserts, so runtime invariants must raise
    paths = sorted(Path(prmw.__file__).parent.glob("*.py"))
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(paths) > 1
    assert asserts == []
