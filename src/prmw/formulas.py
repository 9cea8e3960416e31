"""Closed-form minimum and next-to-minimal weight formulas, and what
they assert about one code.

These are the pure-arithmetic values that exhaustive enumeration must
reproduce.  There is one decomposition, d = a(q-1) + b with
0 < b <= q-1 (``decompose_affine``); the projective pair (k, ell) of
PRM(n, d) is the affine pair of d-1.

For general q only the three-value candidate set for the affine
next-to-minimal weight is exposed; the rule selecting which candidate
applies is out of scope and empirical values are checked for membership
instead.  The binary closed forms are complete.

``expectation`` is the one place where these become pass/fail checks:
its ``Expectation`` says which W1 and W2 values a code may have and how
to render them, and ``check`` judges a computed pair.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import RM, CodeParams
from .errors import DomainError
from .gfp import GF


def decompose_affine(d: int, q: int) -> tuple[int, int]:
    """(a, b) with d = a(q-1) + b, 0 < b <= q-1."""
    if d < 1:
        raise DomainError(f"d={d} must be >= 1")
    a = (d - 1) // (q - 1)
    return a, d - a * (q - 1)


def w1_rm(n: int, d: int, q: int) -> int:
    """Minimum weight of RM(n, d): (q-b) q^(n-a-1), and 1 past full range."""
    GF(q)
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    if d < 1:
        raise DomainError(f"d={d} must be >= 1")
    if d > n * (q - 1):
        return 1  # the code is the whole space
    a, b = decompose_affine(d, q)
    return (q - b) * q ** (n - a - 1)


def w1_prm(r: int, d: int, q: int) -> int:
    """Minimum weight of PRM(r, d): 1 for r <= k, else (q-ell) q^(r-k-1).

    At r = n this equals w1_rm(n, d-1, q): the projective minimum
    distance matches the affine one at one degree less.
    """
    GF(q)
    if r < 0:
        raise DomainError(f"r={r} must be >= 0")
    if d < 2:
        raise DomainError(f"d={d} must be >= 2")
    k, ell = decompose_affine(d - 1, q)
    if r <= k:
        return 1
    return (q - ell) * q ** (r - k - 1)


def w2_rm_binary(n: int, e: int) -> int:
    """Next-to-minimal weight of RM(n, e) over GF(2), 1 <= e <= n-1.

    Cases on k = e-1: 2^n for k = 0; 3*2^(n-k-2) for 0 < k < n-2;
    4 for k = n-2.
    """
    if not 1 <= e <= n - 1:
        raise DomainError(f"e={e} outside [1, {n - 1}] for n={n}")
    k = e - 1
    if k == n - 2:
        return 4
    if k == 0:
        return 2**n
    return 3 * 2 ** (n - k - 2)


def w2_prm_binary(n: int, d: int) -> int:
    """Next-to-minimal weight of PRM(n, d) over GF(2), 2 <= d <= n.

    Binary PRM(n, d) is RM(n+1, d) shortened at the origin, so this is
    w2_rm_binary(n+1, d).  It equals w2_rm_binary(n, d-1) except at
    d = 2, n >= 3, where W2 of RM(n+1, 2) is 3*2^(n-2).  PRM(n, 1) has a
    single nonzero weight, so d = 1 has no next-to-minimal weight.
    """
    if n < 2:
        raise DomainError(f"n={n} must be >= 2")
    if d == 1:
        raise DomainError("PRM(n, 1) has no next-to-minimal weight")
    if not 2 <= d <= n:
        raise DomainError(f"d={d} outside [2, {n}] for n={n}")
    return w2_rm_binary(n + 1, d)


def w2_rm_candidates(n: int, d: int, q: int) -> tuple[int, ...]:
    """The sorted candidate set for the affine next-to-minimal weight:
    values base + c*q^(n-a-2), base = (q-b)q^(n-a-1) the minimum weight,
    with c in {b-1, q-1, q} (integral ones only on the n-a-2 = -1
    boundary)."""
    GF(q)
    a, b = decompose_affine(d, q)
    e = n - a - 2
    if e < -1:
        raise DomainError(
            f"candidate formula inapplicable for n={n}, d={d}, q={q} (a={a})"
        )
    base = (q - b) * q ** (e + 1)
    if e >= 0:
        options = {base + c * q**e for c in (b - 1, q - 1, q)}
    else:  # e = -1: base + c/q is an integer exactly when q divides c
        options = {base + c // q for c in (b - 1, q - 1, q) if c % q == 0}
    cands = tuple(sorted(options))
    if q == 2 and 1 <= d <= n - 1:
        # binary closed form must be one of the candidates
        if w2_rm_binary(n, d) not in cands:
            raise RuntimeError(f"binary W2 {w2_rm_binary(n, d)} not among candidates {cands}")
    return cands


def avoiding_bounds(n: int, d: int, q: int) -> tuple[int, tuple[int, int], int]:
    """(k, hyperplane bound, subspace bound) for PRM(n, d), d >= 2, with
    (k, ell) the affine pair of d-1.

    A codeword support S with |S| < (q+1)(q-ell) q^(n-k-2) misses some
    hyperplane, and one with |S| <= (q-ell+1) q^(n-k-1) misses a
    subspace of dimension at least k.  The hyperplane bound is exact, a
    (numerator, denominator) pair of ints in lowest terms: q divides
    neither q+1 nor q-ell, and on PRM's range n-k-2 >= -1, so the
    denominator is 1 or q.
    """
    k, ell = decompose_affine(d - 1, q)
    e = n - k - 2
    hyperplane = ((q + 1) * (q - ell) * q ** max(e, 0), q ** max(-e, 0))
    return k, hyperplane, (q - ell + 1) * q ** (n - k - 1)


class Expectation(NamedTuple):
    """What the closed forms assert about one code.

    ``w1`` is the exact minimum weight, or None if none is asserted.
    ``w2`` holds the allowed next-to-minimal weights: one value is an
    exact closed form, several a candidate set, () asserts nothing.
    ``w2_text`` renders the W2 formula, which may show a value that is
    not asserted (the q > 2 projective bound).
    """

    w1: int | None
    w2: tuple[int, ...] = ()
    w2_text: str = ""

    def check(self, w1: int, w2: int | None) -> bool | None:
        """Whether computed weights agree; None if nothing is asserted."""
        verdicts = []
        if self.w1 is not None:
            verdicts.append(w1 == self.w1)
        if self.w2:
            verdicts.append(w2 in self.w2)
        return all(verdicts) if verdicts else None


def expectation(params: CodeParams) -> Expectation:
    """The closed forms for ``params``.

    RM: W1 exactly; W2 exactly for q = 2 and 1 <= d <= n-1, and for
    q > 2 as membership in the candidate set.  PRM: W1 equals the affine
    minimum at one degree less; W2 exactly for q = 2 and 2 <= d <= n;
    for q > 2 the candidates of RM(n, d-1) are rendered as an upper
    bound and nothing is asserted.
    """
    q, n, d = params.q, params.n, params.d
    if params.family == RM:
        if d < 1:
            return Expectation(None)
        w1 = w1_rm(n, d, q)
        if q > 2:
            options = w2_rm_candidates(n, d, q)
            return Expectation(w1, options, "in {%s}" % ",".join(map(str, options)))
        if d > n - 1:
            return Expectation(w1)
        w2 = w2_rm_binary(n, d)
    else:
        if d < 2:
            return Expectation(None)
        w1 = w1_prm(n, d, q)
        if q > 2:
            options = w2_rm_candidates(n, d - 1, q)
            return Expectation(w1, (), "<= max{%s}" % ",".join(map(str, options)))
        if d > n:
            return Expectation(w1)
        w2 = w2_prm_binary(n, d)
    return Expectation(w1, (w2,), str(w2))
