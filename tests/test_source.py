"""Invariants of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_no_private_name_imported_across_modules():
    # a leading underscore keeps a name inside its module
    imports = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(Path(prmw.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imports == []


def test_float32_product_rule_lives_in_gfp():
    # every float32 product goes through gfp.f32_products, so no other
    # module names the exactness bound or the block size
    names = {"F32_BLOCK", "F32_EXACT"}
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(prmw.__file__).parent.glob("*.py"))
        if path.name != "gfp.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.alias) and node.name in names)
    ]
    assert uses == []


def test_public_names_resolve():
    # every name the package exports is defined on it
    assert [name for name in prmw.__all__ if not hasattr(prmw, name)] == []


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


def test_benchmark_self_check_passes():
    # the benchmark's smoke run imports prmw from this checkout's src, so
    # a removed or renamed name it uses fails here
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run), "--self-check"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert ", 0 problems" in proc.stdout


def _fresh_interpreter(code, openblas_threads=None):
    """The words ``code`` prints in a new interpreter that imports prmw
    from this checkout and whose environment sets OPENBLAS_NUM_THREADS as
    given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(prmw.__file__).resolve().parents[1])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout.split()


def _import_in_fresh_interpreter(openblas_threads, then="pass"):
    """Thread count, OPENBLAS_NUM_THREADS and whether concurrent.futures
    and numpy.ma are loaded, after ``import prmw.cli`` and the statements
    ``then`` in a new interpreter whose environment sets the variable as
    given."""
    code = (
        "import os, sys, prmw.cli; " + then + "; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'), "
        "'concurrent.futures' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    out = _fresh_interpreter(code, openblas_threads)
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


def test_cli_import_freezes_its_heap():
    # the import-time objects live until exit, so no collection, the one
    # at interpreter exit included, walks them; the collector stays on
    code = "import gc, prmw.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)"
    assert _fresh_interpreter(code) == ["True", "True"]


def test_package_import_leaves_the_collector_alone():
    assert _fresh_interpreter("import gc, prmw; print(gc.get_freeze_count())") == ["0"]


def test_cli_freeze_holds_no_garbage():
    # every frozen object is reachable: unfrozen, a full collection frees none
    code = "import gc, prmw.cli; gc.unfreeze(); print(gc.collect())"
    assert _fresh_interpreter(code) == ["0"]


def test_heap_frozen_once_at_cli_import():
    # a freeze in main() would freeze the garbage pending at each call
    calls = [
        (path.name, isinstance(stmt, ast.Expr) and stmt.value is node)
        for path in sorted(Path(prmw.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "freeze"
    ]
    assert calls == [("cli.py", True)]


# -- records -------------------------------------------------------------------


def test_cli_import_loads_no_dataclasses_or_fractions():
    # @dataclass compiles its methods at every import and fractions loads
    # decimal: about 10 ms of each invocation that no record needs
    code = (
        "import sys, prmw.cli; "
        "print(*[m in sys.modules for m in ('dataclasses', 'fractions', 'decimal')])"
    )
    assert _fresh_interpreter(code) == ["False", "False", "False"]


def _records():
    """One value of each record type, built twice over by the public calls."""
    from prmw.formulas import expectation

    gf = prmw.GF(2)
    params = prmw.CodeParams("prm", 2, 3, 2)
    code = prmw.build(params)
    report = prmw.weight_report(code)
    (subspace,) = prmw.find_avoiding_subspace([(0,)], 3, gf, 2)
    (violation, *_) = prmw.check_subspace_bounds([(0,)], params)
    cover = prmw.zero_set_is_hyperplane_union(prmw.parse_poly("X0*X1", 4, gf), 3, gf)
    return [params, expectation(params), subspace, violation, cover, report.witnesses[0], report]


def test_records_compare_by_value_hash_and_are_immutable():
    first, again = _records(), _records()
    assert [type(r).__name__ for r in first] == [
        "CodeParams",
        "Expectation",
        "Subspace",
        "BoundViolation",
        "HyperplaneCover",
        "Witness",
        "WeightReport",
    ]
    first[-1], again[-1] = first[-1]._replace(elapsed_ms=0), again[-1]._replace(elapsed_ms=0)
    for a, b in zip(first, again):
        assert a == b and a is not b
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], None)
    # the report holds its distribution as a dict, so it is not hashable
    assert [hash(a) == hash(b) for a, b in zip(first[:-1], again[:-1])] == [True] * 6


def test_code_params_validate_on_replace():
    params = prmw.CodeParams(family="rm", q=3, n=2, d=4)
    assert params._replace(d=1) == ("rm", 3, 2, 1)
    for field, bad in [("family", "xm"), ("q", 4), ("n", 0), ("d", 5)]:
        with pytest.raises(prmw.DomainError):
            params._replace(**{field: bad})


def test_codes_equal_only_to_themselves():
    a, b = (prmw.build(prmw.CodeParams("rm", 2, 3, 1)) for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2
    assert repr(a) == "Code(rm(n=3, d=1) over GF(2), [8, 4])"
    with pytest.raises(AttributeError):
        a.gen = b.gen


def test_avoiding_subspaces_are_returned_whole():
    # a NamedTuple put into an object array one by one could be spread
    # into a row of its fields; every result entry is a Subspace or None
    gf = prmw.GF(2)
    npts = 15
    batches = [[(0,)], [(0,), tuple(range(npts)), (1, 2)], np.ones((3, npts), dtype=bool)]
    for batch in batches:
        for find in (prmw.find_avoiding_subspace, prmw.find_avoiding_subspace_at_least):
            found = find(batch, 3, gf, 1)
            assert type(found) is list and len(found) == len(batch)
            assert all(s is None or type(s) is prmw.Subspace for s in found)
    found = prmw.find_avoiding_subspace_at_least([(0,), tuple(range(npts))], 3, gf, 0)
    assert found[0].dim == 2 and 0 not in found[0].point_indices and found[1] is None
