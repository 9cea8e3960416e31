"""Invariants of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_reads_only_the_blas_thread_variable():
    # an option is set one way, by its flag: the package reads no
    # environment variable but the BLAS thread count it sets for numpy
    keys = []
    for path in sorted(Path(prmw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name not in ("environ", "environb", "getenv", "getenvb"):
                continue
            use = parent[node]
            if isinstance(use, ast.Attribute) and isinstance(parent[use], ast.Call):
                use = parent[use]  # os.environ.get(key), os.environ.setdefault(key, value)
            if isinstance(use, ast.Subscript):
                key = use.slice
            elif isinstance(use, ast.Call) and use.args:
                key = use.args[0]
            else:
                key = None  # any other use: reported by place
            keys.append(key.value if isinstance(key, ast.Constant) else f"{path.name}:{node.lineno}")
    assert keys == ["OPENBLAS_NUM_THREADS"]


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


def _import_in_fresh_interpreter(openblas_threads, then="pass"):
    """Thread count, OPENBLAS_NUM_THREADS and whether concurrent.futures
    and numpy.ma are loaded, after ``import prmw.cli`` and the statements
    ``then`` in a new interpreter whose environment sets the variable as
    given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(prmw.__file__).resolve().parents[1])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    code = (
        "import os, sys, prmw.cli; " + then + "; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'), "
        "'concurrent.futures' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout.split()
    return int(out[0]), out[1], out[2] == "True", out[3] == "True"


needs_proc_task = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)


@needs_proc_task
def test_import_starts_no_thread():
    # an OpenBLAS worker would spin on a core after every BLAS call
    assert _import_in_fresh_interpreter(None) == (1, "1", False, False)


@needs_proc_task
def test_import_keeps_callers_openblas_threads():
    assert _import_in_fresh_interpreter("2")[1] == "2"


@needs_proc_task
def test_one_block_binary_count_starts_no_thread():
    # k = 16 is one block, as is every binary count the `table`
    # benchmark jobs make: no thread pool, not even its import
    then = (
        "from prmw import CodeParams, build, weight_report; "
        "weight_report(build(CodeParams('rm', 2, 5, 2)))"
    )
    threads, _, futures, _ = _import_in_fresh_interpreter(None, then)
    assert (threads, futures) == (1, False)


def test_verify_and_witness_do_not_import_numpy_ma():
    # numpy.ma loads on the first np.unique call and costs a process
    # about 12 ms; the geometry checks need neither
    then = (
        "prmw.cli.main(['verify', '--q', '2', '--n', '3', '--d', '3', '--out', os.devnull]); "
        "prmw.cli.main(['witness', '--q', '2', '--n', '3', '--poly', 'X0*X3+X1*X2', "
        "'--out', os.devnull])"
    )
    assert _import_in_fresh_interpreter(None, then)[3] is False
