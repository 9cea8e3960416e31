"""Output checks.  Each returns a list of problems; empty means correct.

``golden.json`` (written by ``record_golden.py``) holds the table rows
and verify checks as recorded, the weight distribution of every
enumerated instance, and digests of the constructed generator matrices.
Witness reports are checked against the benchmark's own evaluation of
the quadric, and RM dimensions against its own monomial count.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json

from workloads import quadric_monomials


def job_key(argv: list[str]) -> str:
    """Golden key of a CLI invocation: its arguments without the format."""
    return " ".join(a for a in argv if a not in ("--format", "json"))


def instance_key(family: str, q: int, n: int, d: int) -> str:
    return f"{family} q={q} n={n} d={d}"


def check_table(key: str, rows: list[dict], golden: dict) -> list[str]:
    problems = []
    if rows != golden["table"].get(key):
        problems.append(f"{key}: rows differ from golden")
    for row in rows:
        if (row.get("w1_formula") or row.get("w2_formula")) and row.get("match") != "true":
            problems.append(f"{key}: row n={row.get('n')} d={row.get('d')} match={row.get('match')!r}")
    return problems


def strip_elapsed(checks: list[dict]) -> list[dict]:
    return [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in checks]


def check_verify(key: str, doc: dict, golden: dict) -> list[str]:
    problems = []
    if doc.get("status") != "pass":
        problems.append(f"{key}: status {doc.get('status')!r}")
    if strip_elapsed(doc.get("checks", [])) != golden["verify"].get(key):
        problems.append(f"{key}: checks differ from golden")
    return problems


def projective_points(n: int, q: int) -> list[tuple[int, ...]]:
    """Standard representatives of P^n(GF(q)) in ascending lexicographic
    order: every vector of GF(q)^(n+1), in order, whose first nonzero
    coordinate is 1."""
    return [
        v
        for v in itertools.product(range(q), repeat=n + 1)
        if any(v) and next(x for x in v if x) == 1
    ]


def quadric_support(q: int, n: int, coeffs: list[int]) -> list[int]:
    terms = [(c, i, j) for c, (i, j) in zip(coeffs, quadric_monomials(n)) if c]
    return [
        idx
        for idx, p in enumerate(projective_points(n, q))
        if sum(c * p[i] * p[j] for c, i, j in terms) % q
    ]


def check_witness(argv: list[str], coeffs: list[int], doc: dict) -> list[str]:
    q, n = int(argv[argv.index("--q") + 1]), int(argv[argv.index("--n") + 1])
    support = quadric_support(q, n, coeffs)
    problems = []
    if doc.get("support") != support:
        problems.append(f"witness q={q} n={n}: support differs from the evaluated quadric")
    if doc.get("weight") != len(support):
        problems.append(f"witness q={q} n={n}: weight {doc.get('weight')} != {len(support)}")
    return problems


def rm_monomial_count(n: int, d: int, q: int) -> int:
    """Exponent vectors in n variables, each exponent <= q-1, total <= d."""
    ways = [1] + [0] * d  # ways[t]: vectors so far with total degree t
    for _ in range(n):
        ways = [sum(ways[t - e] for e in range(min(t, q - 1) + 1)) for t in range(d + 1)]
    return sum(ways)


def rows_digest(rows: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode("ascii")).hexdigest()


class Checker:
    """Checks job outputs against one golden fixture.  Identical bitdumps
    get the verdict already reached, so a run parses each dump once."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self._bitdump_verdicts: dict[str, list[str]] = {}

    def check(self, job: dict, rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        if job["kind"] == "construct":
            return self.check_construct(job["cases"], doc)
        command = job["argv"][0]
        if command == "table":
            return check_table(job_key(job["argv"]), doc, self.golden)
        if command == "verify":
            return check_verify(job_key(job["argv"]), doc, self.golden)
        return check_witness(job["argv"], job["quadric"], doc)

    def check_bitdump(self, key: str, blob: bytes, expect: dict) -> list[str]:
        """Round trip through ``bitdump_to_rows``."""
        digest = hashlib.sha256(blob).hexdigest()
        if digest not in self._bitdump_verdicts:
            from prmw.codes import bitdump_to_rows

            meta, rows = bitdump_to_rows(blob)
            self._bitdump_verdicts[digest] = [
                (int(meta["rows"]), int(meta["cols"])),
                rows_digest(rows),
            ]
        shape, rows_sha = self._bitdump_verdicts[digest]
        problems = []
        if shape != (expect["dimension"], expect["length"]):
            problems.append(f"{key}: bitdump header {shape}")
        if rows_sha != expect["rows_sha256"]:
            problems.append(f"{key}: bitdump rows differ from golden")
        return problems

    def check_construct(self, cases: list, results: list[dict]) -> list[str]:
        if [r.get("case") for r in results] != cases:
            return ["construct: cases missing or out of order"]
        problems = []
        for res in results:
            family, q, n, d = res["case"]
            key = instance_key(family, q, n, d)
            expect = self.golden["construct"][key]
            for field in ("length", "dimension", "json_sha256"):
                if res[field] != expect[field]:
                    problems.append(f"{key}: {field} differs from golden")
            if family == "rm" and res["dimension"] != rm_monomial_count(n, d, q):
                problems.append(f"{key}: dimension {res['dimension']} != monomial count")
            if q == 2:
                problems += self.check_bitdump(key, base64.b64decode(res["bitdump"]), expect)
        return problems
