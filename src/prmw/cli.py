"""Command-line front end: weight tables, verification runs, witness reports.

Exit codes: 0 all checks pass, 1 verification failure, 2 budget or
configuration error.  All JSON output is deterministic (sorted keys);
only elapsed_ms fields vary between runs.

Importing this module freezes the garbage collector's heap
(``gc.freeze``): the objects the imports made live until the process
exits, so neither its exit nor a later collection walks them again.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

from .codes import PRM, RM, CodeParams, build
from .errors import BudgetExceeded, DomainError
from .formulas import avoiding_bounds, expectation
from .geometry import (
    check_subspace_bounds,
    find_avoiding_subspace,
    find_avoiding_subspace_at_least,
    projective_support,
    zero_set_is_hyperplane_union,
)
from .gfp import GF
from .poly import parse_poly
from .weights import DEFAULT_BUDGET, codeword_support, weight_report

MIN_BUDGET = 1 << 10

# geometry checks walk every nonzero codeword up to this many messages,
# and fall back to the witness codewords beyond it
EXHAUSTIVE_GEOMETRY_LIMIT = 1 << 15

TABLE_COLUMNS = [
    "family",
    "q",
    "n",
    "d",
    "length",
    "dimension",
    "w1_formula",
    "w2_formula",
    "w1_brute",
    "w2_brute",
    "match",
    "note",
]


def _parse_range(spec: str, n: int | None = None) -> list[int]:
    """``3`` -> [3]; ``2..4`` -> [2,3,4]; ``2..n`` -> [2..n] per row."""

    def bound(tok: str) -> int:
        if tok == "n":
            if n is None:
                raise DomainError("'n' bound is only valid for --d")
            return n
        return int(tok)

    try:
        if ".." in spec:
            lo_s, hi_s = spec.split("..", 1)
            lo, hi = bound(lo_s), bound(hi_s)
        else:
            lo = hi = bound(spec)
    except ValueError:
        raise DomainError(f"cannot parse range {spec!r}") from None
    return list(range(lo, hi + 1))


def _emit(args: argparse.Namespace, doc, text: str) -> None:
    """Write ``doc`` as sorted-keys JSON under ``--format json``, else
    ``text``, to ``--out`` or stdout."""
    if args.fmt == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc.strerror}") from None


def _grid(args: argparse.Namespace) -> list[tuple[int, int]]:
    grid = [(n, d) for n in args.n for d in _parse_range(args.d, n)]
    if not grid:
        raise DomainError("the (n, d) grid is empty")
    return grid


# -- table ---------------------------------------------------------------------


def _table_row(args: argparse.Namespace, n: int, d: int) -> dict:
    row = dict.fromkeys(TABLE_COLUMNS, "")
    row.update(family=args.family, q=args.q, n=n, d=d)
    try:
        code = build(CodeParams(args.family, args.q, n, d))
    except (DomainError, BudgetExceeded) as exc:
        row["note"] = str(exc)
        return row
    exp = expectation(code.params)
    row.update(length=code.length, dimension=code.dimension, w2_formula=exp.w2_text)
    row["w1_formula"] = "" if exp.w1 is None else str(exp.w1)
    try:
        rep = weight_report(code, budget=args.budget)
    except BudgetExceeded as exc:
        row["note"] = str(exc)
        return row
    row["w1_brute"] = rep.min_weight
    row["w2_brute"] = "" if rep.next_weight is None else rep.next_weight
    # like verify, a row fails only where a closed form is contradicted,
    # and is left blank where none is asserted
    verdict = exp.check(rep.min_weight, rep.next_weight)
    row["match"] = "" if verdict is None else "true" if verdict else "false"
    return row


def cmd_table(args: argparse.Namespace) -> int:
    rows = [_table_row(args, n, d) for n, d in _grid(args)]
    cells = [TABLE_COLUMNS] + [[str(r[c]) for c in TABLE_COLUMNS] for r in rows]
    if args.fmt == "csv":
        import csv  # here only: the json and text jobs do not pay its import
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        text = buf.getvalue()
    else:
        widths = [max(map(len, col)) for col in zip(*cells)]
        text = "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in cells)
    _emit(args, rows, text)
    return 1 if any(r["match"] == "false" for r in rows) else 2 if any(r["note"] for r in rows) else 0


# -- verify ----------------------------------------------------------------------


def _verify_instance(args: argparse.Namespace, n: int, d: int, checks: list[dict]) -> None:
    q, name = args.q, f"{args.family}({n},{d}) q={args.q}"
    t0 = time.perf_counter()

    def record(check: str, status: str, detail: str) -> None:
        # each entry is timed from the previous one, so the entries of an
        # instance add up to its wall time
        nonlocal t0
        now = time.perf_counter()
        elapsed_ms = int((now - t0) * 1000)
        checks.append(dict(check=check, instance=name, status=status, detail=detail, elapsed_ms=elapsed_ms))
        t0 = now

    try:
        code = build(CodeParams(args.family, q, n, d))
        rep = weight_report(code, budget=args.budget)
    except BudgetExceeded as exc:
        record("weights", "budget", str(exc))
        return

    exp = expectation(code.params)
    record(
        "weights",
        "fail" if exp.check(rep.min_weight, rep.next_weight) is False else "pass",
        f"dimension={rep.dimension} w1={rep.min_weight} w2={rep.next_weight} "
        f"formula w1={'-' if exp.w1 is None else exp.w1} w2={exp.w2_text or '-'}",
    )

    if args.family != PRM or d < 2:
        return

    # geometry checks need codeword supports: exhaustively over all
    # nonzero codewords while feasible, else over the extreme-weight
    # witnesses of the report; collecting them is charged to
    # intersection_bounds
    gf = GF(q)
    if q**rep.dimension <= EXHAUSTIVE_GEOMETRY_LIMIT:
        # every message in itertools.product order (last digit fastest)
        # but the first, the zero one
        messages = np.indices((q,) * rep.dimension, dtype=np.uint8).reshape(rep.dimension, -1).T[1:]
        scope = f"all {len(messages)} nonzero codewords"
        # the q - 1 scalar multiples of a codeword share its support, so
        # the messages whose first nonzero digit is 1 stand for them all
        leading = messages[np.arange(len(messages)), (messages != 0).argmax(axis=1)]
        messages = messages[leading == 1]
        multiples = q - 1
    else:
        messages = [w.message for w in rep.witnesses]
        scope = f"{len(messages)} witness codewords"
        multiples = 1
    supports = codeword_support(code, messages)

    try:
        violations = multiples * len(check_subspace_bounds(supports, code.params))
        status = "pass" if violations == 0 else "fail"
        record("intersection_bounds", status, f"{scope}, dims 1..{n - 1}, {violations} violations")
    except BudgetExceeded as exc:
        record("intersection_bounds", "budget", str(exc))

    k, (num, den), subspace_bound = avoiding_bounds(n, d, q)
    try:
        # |S| < num/den iff |S| < ceil(num/den)
        sizes = supports.sum(axis=1)
        small = supports[sizes < -(-num // den)]
        missing1 = multiples * find_avoiding_subspace(small, n, gf, n - 1).count(None)
        record(
            "avoiding_hyperplane",
            "pass" if missing1 == 0 else "fail",
            f"{scope}, |S| < {num / den:g}, {missing1} without avoiding hyperplane",
        )
        small = supports[sizes <= subspace_bound]
        missing2 = multiples * find_avoiding_subspace_at_least(small, n, gf, k).count(None)
        record(
            "avoiding_subspace",
            "pass" if missing2 == 0 else "fail",
            f"{scope}, |S| <= {subspace_bound}, dim >= k={k}, {missing2} without",
        )
    except BudgetExceeded as exc:
        record("avoiding_subspace", "budget", str(exc))

    # the quadric witness settles the strict-inequality case: it attains
    # the closed-form W2 and is not a union of hyperplanes
    if q == 2 and d == 2 and n >= 3:
        quad = parse_poly("X0*X3+X1*X2", n + 1, gf)
        weight = len(projective_support(quad, n, gf))
        cover = zero_set_is_hyperplane_union(quad, n, gf)
        (expected,) = exp.w2
        ok = weight == expected == rep.next_weight and not cover.is_union
        detail = f"weight={weight} expected={expected} hyperplane_union={cover.is_union}"
        record("witness_quadric", "pass" if ok else "fail", detail)


def cmd_verify(args: argparse.Namespace) -> int:
    grid = _grid(args)
    for n, d in grid:
        # an out-of-range (n, d) is a configuration error, before any run
        CodeParams(args.family, args.q, n, d)
    checks: list[dict] = []
    for n, d in grid:
        _verify_instance(args, n, d, checks)
    statuses = {c["status"] for c in checks}
    status = "fail" if "fail" in statuses else "budget" if "budget" in statuses else "pass"
    lines = [f"[{c['status'].upper():6s}] {c['check']:26s} {c['instance']:18s} {c['detail']}\n" for c in checks]
    doc = dict(command="verify", family=args.family, q=args.q, status=status, checks=checks)
    _emit(args, doc, "".join(lines) + f"overall: {status}\n")
    return {"pass": 0, "fail": 1, "budget": 2}[status]


# -- witness ----------------------------------------------------------------------


def cmd_witness(args: argparse.Namespace) -> int:
    if len(args.n) != 1:
        raise DomainError("witness takes a single --n value")
    (n,), q = args.n, args.q
    gf = GF(q)
    f = parse_poly(args.poly, n + 1, gf)
    if f.is_zero() or not f.is_homogeneous():
        raise DomainError(f"witness polynomial must be nonzero homogeneous: {args.poly!r}")
    support = list(projective_support(f, n, gf))
    if not support:
        raise DomainError("polynomial vanishes on every point")
    (avoid,) = find_avoiding_subspace_at_least([support], n, gf, 0)
    cover = zero_set_is_hyperplane_union(f, n, gf)
    forms = None if avoid is None else [list(r) for r in avoid.forms]
    certificate = [list(h.forms[0]) for h in cover.hyperplanes]
    uncovered = list(cover.uncovered)
    doc = {
        "command": "witness",
        "q": q,
        "n": n,
        "poly": str(f),
        "degree": f.degree(),
        "weight": len(support),
        "support": support,
        "avoiding_subspace_dim": None if avoid is None else avoid.dim,
        "avoiding_subspace_forms": forms,
        "hyperplane_union": cover.is_union,
        "certificate_forms": certificate,
        "uncovered_zeros": uncovered,
    }
    avoiding = "none" if avoid is None else f"dim {avoid.dim}, forms {forms}"
    union = f"true certificate={certificate}" if cover.is_union else f"false uncovered={uncovered}"
    text = (
        f"poly: {f} over GF({q}), P^{n}\nweight: {len(support)}\nsupport: {support}\n"
        f"avoiding subspace: {avoiding}\nhyperplane-union={union}\n"
    )
    _emit(args, doc, text)
    return 0


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prmw",
        description="Reed-Muller / projective Reed-Muller weight tables, "
        "exhaustive verification and witness reports over GF(q), q prime.",
        epilog="CSV columns of `table`: " + ",".join(TABLE_COLUMNS) + ". "
        "match compares brute-force weights with closed forms (for q>2 the "
        "rm W2 is checked for membership in the candidate set; the prm W2 "
        "is reported empirically only; match is empty where nothing is "
        "asserted, as for rm d=0 and prm d=1).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, grid=True, formats=("text", "json")):
        if grid:
            p.add_argument("--family", choices=[RM, PRM], default=PRM)
            budget_help = f"most messages a weight count or witness search may visit, default {DEFAULT_BUDGET}"
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=budget_help)
        p.add_argument("--q", type=int, required=True, help="field size (prime)")
        p.add_argument("--format", dest="fmt", choices=formats, default="text")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    pt = sub.add_parser("table", help="weight table over an (n, d) grid")
    common(pt, formats=("text", "csv", "json"))
    pt.add_argument("--n", required=True, help="value or range, e.g. 3 or 2..4")
    pt.add_argument("--d", required=True, help="value or range; upper bound may be 'n', e.g. 2..n")

    pv = sub.add_parser("verify", help="run weight/geometry checks on a grid")
    common(pv)
    pv.add_argument("--n", required=True)
    pv.add_argument("--d", required=True)

    pw = sub.add_parser("witness", help="weight and geometry report for one polynomial")
    common(pw, grid=False)
    pw.add_argument("--n", required=True, help="projective dimension (single value)")
    pw.add_argument("--poly", required=True, help="homogeneous polynomial in X0..Xn")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.n = _parse_range(args.n)
        if not args.n:
            raise DomainError("empty n range")
        if getattr(args, "budget", MIN_BUDGET) < MIN_BUDGET:
            raise DomainError(f"budget {args.budget} below minimum {MIN_BUDGET}")
        return {"table": cmd_table, "verify": cmd_verify, "witness": cmd_witness}[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2


# Everything alive here (numpy, argparse and this package as imported)
# lives until the process exits, and a full gc.collect() at this point
# finds no unreachable object among the ~21,300 it tracks, so freezing
# them leaks nothing.  Frozen, they are skipped by every later collection
# and at interpreter exit, which otherwise spends about 15 ms of each
# invocation on them.  The freeze is O(1).  It is done here, once: not in
# the package, since a library import leaves its host's collector alone,
# and not in main(), which a host may call many times and which would
# freeze whatever garbage was pending.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
