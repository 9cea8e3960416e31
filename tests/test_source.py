"""Invariants of the package source itself."""

import ast
from pathlib import Path

import prmw
import prmw.cli


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


def test_benchmark_traced_names_are_cli_callables():
    # the benchmark wraps each CLI_TRACED name in the prmw.cli namespace,
    # even untraced, so each must exist there and be what the CLI calls
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    (assign,) = [
        node
        for node in ast.parse(child.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_TRACED" for t in node.targets)
    ]
    names = [entry.elts[0].value for entry in assign.value.elts]
    called = {
        node.func.id
        for node in ast.walk(ast.parse(Path(prmw.cli.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert len(names) == 8
    assert [n for n in names if not callable(getattr(prmw.cli, n, None))] == []
    assert [n for n in names if n not in called] == []
