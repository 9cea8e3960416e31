"""The benchmark's two workloads and how a seed varies them.

Each workload is a fixed list of jobs.  A job runs in its own fresh
interpreter (see ``child.py``): either one ``prmw`` CLI invocation or,
for ``construct``, a sequence of library calls.  The seed shuffles the
order of the jobs in every pass and draws the ``witness`` polynomials;
the set of instances never changes, so the work per pass is fixed.

Why these instances:

* ``table`` is the README's headline binary grid plus the paper's
  q >= 3 range.  The counting kernels are almost all of it: the binary
  blocked kernel on PRM(4,4) (2^30 codewords), RM(5,3) and PRM(4,3),
  the Gray walk on the small binary rows, and the scalar-class kernel
  with its second witness pass on the q-ary rows.  PRM(4,4) has a dual
  of dimension 1, PRM(4,3) one of dimension 6 and PRM(2,4)/GF(3) one of
  dimension 1; PRM(3,2)/GF(3) (k=10, N=40) and PRM(2,3)/GF(5) (k=10,
  N=31) are instances where enumerating the dual cannot help.
  PRM(3,3)/GF(3) (3^20 codewords) is left out: it runs for minutes.
* ``verify-construct`` walks every nonzero codeword of codes with up to
  2^15 codewords through the subspace predicates and makes two
  ``witness`` reports on random quadrics, where the counting kernels are
  a few percent, and in one more job builds and serializes large
  generator matrices, the only place the ``codes`` layer is measurable
  and the memory high-water mark.
"""

from __future__ import annotations

import itertools
import random

JSON = ["--format", "json"]

BINARY_TABLES = [
    ["table", "--family", "prm", "--q", "2", "--n", "2..4", "--d", "2..n"],
    ["table", "--family", "rm", "--q", "2", "--n", "5", "--d", "1..3"],
]

QARY_TABLES = [
    ["table", "--family", "prm", "--q", "3", "--n", "2", "--d", "2..4"],
    ["table", "--family", "prm", "--q", "3", "--n", "3", "--d", "2"],
    ["table", "--family", "rm", "--q", "3", "--n", "3", "--d", "1..2"],
    ["table", "--family", "prm", "--q", "5", "--n", "2", "--d", "2..3"],
    ["table", "--family", "prm", "--q", "7", "--n", "2", "--d", "2"],
]

VERIFY_RUNS = [
    ["verify", "--q", "2", "--n", "4", "--d", "2"],
    ["verify", "--q", "5", "--n", "2", "--d", "2"],
    ["verify", "--q", "2", "--n", "3", "--d", "3"],
]

# (q, n) of the witness reports in verify-construct; each pass draws a
# fresh random quadric for each
WITNESS_SPACES = [(2, 5), (3, 3)]

# (family, q, n, d); every case is built and written as JSON, and the
# binary ones also as a bit-matrix dump
CONSTRUCT_CASES = [
    ("rm", 2, 12, 4),
    ("prm", 2, 9, 4),
    ("rm", 3, 6, 6),
    ("rm", 5, 4, 6),
    ("prm", 7, 3, 6),
]

NAMES = ["table", "verify-construct"]

# one small job of each kind for the self-check; each is also one of a
# workload's own jobs, so the golden fixture covers it
SMOKE = {
    "binary-table": {"kind": "cli", "argv": BINARY_TABLES[1] + JSON},
    "qary-table": {"kind": "cli", "argv": QARY_TABLES[2] + JSON},
    "verify": {"kind": "cli", "argv": VERIFY_RUNS[2] + JSON},
    "construct": {"kind": "construct", "cases": [list(CONSTRUCT_CASES[1])]},
}


def quadric_monomials(n: int) -> list[tuple[int, int]]:
    """The degree-2 monomials X_i*X_j (i <= j) in the variables X0..Xn."""
    return list(itertools.combinations_with_replacement(range(n + 1), 2))


def random_quadric(q: int, n: int, rng: random.Random) -> list[int]:
    """Coefficients of a nonzero quadratic form, one per quadric monomial.

    A nonzero form of degree 2 <= q never vanishes on all of P^n, so
    every draw is a valid ``witness`` input."""
    mons = quadric_monomials(n)
    while True:
        coeffs = [rng.randrange(q) for _ in mons]
        if any(coeffs):
            return coeffs


def quadric_text(coeffs: list[int], n: int) -> str:
    """The form in the ``--poly`` syntax, e.g. ``2*X0*X1+X2*X2``."""
    terms = []
    for c, (i, j) in zip(coeffs, quadric_monomials(n)):
        if c:
            terms.append(("" if c == 1 else f"{c}*") + f"X{i}*X{j}")
    return "+".join(terms)


def witness_job(q: int, n: int, coeffs: list[int]) -> dict:
    argv = ["witness", "--q", str(q), "--n", str(n), "--poly", quadric_text(coeffs, n)]
    return {"kind": "cli", "argv": argv + JSON, "quadric": coeffs}


def pass_jobs(workload: str, rng: random.Random) -> list[dict]:
    """The jobs of one pass of ``workload``, in the order the seed picks."""
    if workload == "table":
        jobs = [{"kind": "cli", "argv": argv + JSON} for argv in BINARY_TABLES + QARY_TABLES]
    else:
        jobs = [{"kind": "cli", "argv": argv + JSON} for argv in VERIFY_RUNS]
        jobs += [witness_job(q, n, random_quadric(q, n, rng)) for q, n in WITNESS_SPACES]
        cases = [list(c) for c in CONSTRUCT_CASES]
        rng.shuffle(cases)
        jobs.append({"kind": "construct", "cases": cases})
    rng.shuffle(jobs)
    return jobs


def job_slot(job: dict) -> str:
    """The job's place in a pass: the same in every pass, whatever the
    seed draws, so a job's timings can be pooled across passes."""
    if job["kind"] != "cli":
        return job["kind"]
    argv = job["argv"]
    return " ".join(argv[:5] if argv[0] == "witness" else argv)
