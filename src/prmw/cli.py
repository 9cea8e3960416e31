"""Command-line front end: weight tables, verification runs, witness reports.

Exit codes: 0 all checks pass, 1 verification failure, 2 budget or
configuration error.  All JSON output is deterministic (sorted keys);
only elapsed_ms fields vary between runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from math import ceil

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


@dataclass
class RunConfig:
    family: str
    q: int
    n_values: list[int]
    d_spec: str
    budget: int
    fmt: str
    out: str | None

    def __post_init__(self):
        if not self.n_values:
            raise DomainError("empty n range")
        if self.budget < MIN_BUDGET:
            raise DomainError(f"budget {self.budget} below minimum {MIN_BUDGET}")

    def d_values(self, n: int) -> list[int]:
        return _parse_range(self.d_spec, n)


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
    if hi < lo:
        return []
    return list(range(lo, hi + 1))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- table ---------------------------------------------------------------------


def _grid(cfg: RunConfig) -> list[tuple[int, int]]:
    grid = [(n, d) for n in cfg.n_values for d in cfg.d_values(n)]
    if not grid:
        raise DomainError("the (n, d) grid is empty")
    return grid


def _table_rows(cfg: RunConfig) -> list[dict]:
    rows = []
    for n, d in _grid(cfg):
        row = {c: "" for c in TABLE_COLUMNS}
        row.update({"family": cfg.family, "q": cfg.q, "n": n, "d": d})
        try:
            code = build(CodeParams(cfg.family, cfg.q, n, d))
        except (DomainError, BudgetExceeded) as exc:
            row["note"] = str(exc)
            rows.append(row)
            continue
        row["length"], row["dimension"] = code.length, code.dimension
        exp = expectation(code.params)
        row["w1_formula"] = "" if exp.w1 is None else str(exp.w1)
        row["w2_formula"] = exp.w2_text
        try:
            rep = weight_report(code, budget=cfg.budget)
        except BudgetExceeded as exc:
            row["note"] = str(exc)
            rows.append(row)
            continue
        row["w1_brute"] = rep.min_weight
        row["w2_brute"] = "" if rep.next_weight is None else rep.next_weight
        # like verify, a row fails only where a closed form is contradicted,
        # and is left blank where none is asserted
        verdict = exp.check(rep.min_weight, rep.next_weight)
        row["match"] = "" if verdict is None else "true" if verdict else "false"
        rows.append(row)
    return rows


def _render_text(rows: list[dict]) -> str:
    cols = TABLE_COLUMNS
    str_rows = [[str(r[c]) for c in cols] for r in rows]
    widths = [max(len(c), *(len(sr[i]) for sr in str_rows)) if str_rows else len(c) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for sr in str_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(sr, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[dict]) -> str:
    lines = [",".join(TABLE_COLUMNS)]
    for r in rows:
        lines.append(",".join(_csv_cell(str(r[c])) for c in TABLE_COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_cell(v: str) -> str:
    if any(ch in v for ch in ",\"\n"):
        return '"' + v.replace('"', '""') + '"'
    return v


def cmd_table(cfg: RunConfig) -> int:
    rows = _table_rows(cfg)
    if cfg.fmt == "json":
        _emit(json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n", cfg.out)
    elif cfg.fmt == "csv":
        _emit(_render_csv(rows), cfg.out)
    else:
        _emit(_render_text(rows), cfg.out)
    bad = [r for r in rows if r["match"] == "false"]
    budget = [r for r in rows if r["note"]]
    return 1 if bad else 2 if budget else 0


# -- verify ----------------------------------------------------------------------


def _verify_instance(cfg: RunConfig, n: int, d: int, checks: list[dict]) -> None:
    name = f"{cfg.family}({n},{d}) q={cfg.q}"
    t0 = time.perf_counter()

    def record(check: str, status: str, detail: str) -> None:
        # each entry is timed from the previous one, so the entries of an
        # instance add up to its wall time
        nonlocal t0
        now = time.perf_counter()
        checks.append(
            {
                "check": check,
                "instance": name,
                "status": status,
                "detail": detail,
                "elapsed_ms": int((now - t0) * 1000),
            }
        )
        t0 = now

    try:
        code = build(CodeParams(cfg.family, cfg.q, n, d))
        rep = weight_report(code, budget=cfg.budget)
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

    if cfg.family != PRM or d < 2:
        return

    # geometry checks need codeword supports: exhaustively over all
    # nonzero codewords while feasible, else over the extreme-weight
    # witnesses of the report; collecting them is charged to
    # intersection_bounds
    gf = GF(cfg.q)
    exhaustive = cfg.q**rep.dimension <= EXHAUSTIVE_GEOMETRY_LIMIT
    if exhaustive:
        # every message in itertools.product order (last digit fastest)
        # but the first, the zero one
        messages = np.indices((cfg.q,) * rep.dimension).reshape(rep.dimension, -1).T[1:]
        scope = f"all {len(messages)} nonzero codewords"
    else:
        messages = [w.message for w in rep.witnesses]
        scope = f"{len(messages)} witness codewords"
    supports = codeword_support(code, messages)

    try:
        violations = len(check_subspace_bounds(supports, code.params))
        record(
            "intersection_bounds",
            "pass" if violations == 0 else "fail",
            f"{scope}, dims 1..{n - 1}, {violations} violations",
        )
    except BudgetExceeded as exc:
        record("intersection_bounds", "budget", str(exc))

    k, hyperplane_bound, subspace_bound = avoiding_bounds(n, d, cfg.q)
    try:
        # |S| < bound iff |S| < ceil(bound): no Fraction compare per support
        sizes = supports.sum(axis=1)
        small = supports[sizes < ceil(hyperplane_bound)]
        missing1 = sum(h is None for h in find_avoiding_subspace(small, n, gf, n - 1))
        record(
            "avoiding_hyperplane",
            "pass" if missing1 == 0 else "fail",
            f"{scope}, |S| < {float(hyperplane_bound):g}, {missing1} without avoiding hyperplane",
        )
        small = supports[sizes <= subspace_bound]
        missing2 = sum(h is None for h in find_avoiding_subspace_at_least(small, n, gf, k))
        record(
            "avoiding_subspace",
            "pass" if missing2 == 0 else "fail",
            f"{scope}, |S| <= {subspace_bound}, dim >= k={k}, {missing2} without",
        )
    except BudgetExceeded as exc:
        record("avoiding_subspace", "budget", str(exc))

    # the quadric witness settles the strict-inequality case: it attains
    # the closed-form W2 and is not a union of hyperplanes
    if cfg.q == 2 and d == 2 and n >= 3:
        quad = parse_poly("X0*X3+X1*X2", n + 1, gf)
        sup = projective_support(quad, n, gf)
        cover = zero_set_is_hyperplane_union(quad, n, gf)
        (expected,) = exp.w2
        ok = len(sup) == expected == rep.next_weight and not cover.is_union
        record(
            "witness_quadric",
            "pass" if ok else "fail",
            f"weight={len(sup)} expected={expected} hyperplane_union={cover.is_union}",
        )


def cmd_verify(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    for n, d in grid:
        # an out-of-range (n, d) is a configuration error, before any run
        CodeParams(cfg.family, cfg.q, n, d)
    checks: list[dict] = []
    for n, d in grid:
        _verify_instance(cfg, n, d, checks)
    failed = [c for c in checks if c["status"] == "fail"]
    budget = [c for c in checks if c["status"] == "budget"]
    status = "fail" if failed else "budget" if budget else "pass"
    doc = {
        "command": "verify",
        "family": cfg.family,
        "q": cfg.q,
        "status": status,
        "checks": checks,
    }
    if cfg.fmt == "text":
        lines = [
            f"[{c['status'].upper():6s}] {c['check']:26s} {c['instance']:18s} {c['detail']}"
            for c in checks
        ]
        lines.append(f"overall: {status}")
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        _emit(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", cfg.out)
    return 1 if failed else 2 if budget else 0


# -- witness ----------------------------------------------------------------------


def cmd_witness(cfg: RunConfig, n: int, poly_src: str) -> int:
    gf = GF(cfg.q)
    f = parse_poly(poly_src, n + 1, gf)
    if f.is_zero() or not f.is_homogeneous():
        raise DomainError(f"witness polynomial must be nonzero homogeneous: {poly_src!r}")
    support = projective_support(f, n, gf)
    if not support:
        raise DomainError("polynomial vanishes on every point")
    (avoid,) = find_avoiding_subspace_at_least([support], n, gf, 0)
    cover = zero_set_is_hyperplane_union(f, n, gf)
    doc = {
        "command": "witness",
        "q": cfg.q,
        "n": n,
        "poly": str(f),
        "degree": f.degree(),
        "weight": len(support),
        "support": list(support),
        "avoiding_subspace_dim": None if avoid is None else avoid.dim,
        "avoiding_subspace_forms": None if avoid is None else [list(r) for r in avoid.forms],
        "hyperplane_union": cover.is_union,
        "certificate_forms": [list(h.forms[0]) for h in cover.hyperplanes],
        "uncovered_zeros": list(cover.uncovered),
    }
    if cfg.fmt == "text":
        lines = [
            f"poly: {doc['poly']} over GF({cfg.q}), P^{n}",
            f"weight: {doc['weight']}",
            f"support: {doc['support']}",
            "avoiding subspace: "
            + (
                "none"
                if avoid is None
                else f"dim {avoid.dim}, forms {doc['avoiding_subspace_forms']}"
            ),
            f"hyperplane-union={'true' if cover.is_union else 'false'}"
            + (
                f" certificate={doc['certificate_forms']}"
                if cover.is_union
                else f" uncovered={doc['uncovered_zeros']}"
            ),
        ]
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        _emit(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", cfg.out)
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

    def common(p, grid=True):
        if grid:
            p.add_argument("--family", choices=[RM, PRM], default=PRM)
            budget_help = f"most messages a weight count or witness search may visit, default {DEFAULT_BUDGET}"
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=budget_help)
        p.add_argument("--q", type=int, required=True, help="field size (prime)")
        p.add_argument("--format", dest="fmt", choices=["text", "csv", "json"], default="text")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    pt = sub.add_parser("table", help="weight table over an (n, d) grid")
    common(pt)
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
        cfg = RunConfig(
            family=getattr(args, "family", PRM),
            q=args.q,
            n_values=_parse_range(args.n),
            d_spec=getattr(args, "d", "1"),
            budget=getattr(args, "budget", DEFAULT_BUDGET),
            fmt=args.fmt,
            out=args.out,
        )
        if args.command == "table":
            return cmd_table(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if len(cfg.n_values) != 1:
            raise DomainError("witness takes a single --n value")
        return cmd_witness(cfg, cfg.n_values[0], args.poly)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
