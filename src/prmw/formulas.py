"""Closed-form minimum and next-to-minimal weight formulas.

These are the pure-arithmetic values that exhaustive enumeration must
reproduce.  The affine decomposition is d = a(q-1) + b with 0 < b <= q-1;
the projective one is d-1 = k(q-1) + ell with 0 < ell <= q-1.

For general q only the three-value candidate set for the affine
next-to-minimal weight is exposed; the rule selecting which candidate
applies is out of scope and empirical values are checked for membership
instead.  The binary closed forms are complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .gfp import GF


def decompose_affine(d: int, q: int) -> tuple[int, int]:
    """(a, b) with d = a(q-1) + b, 0 < b <= q-1."""
    if d < 1:
        raise DomainError(f"d={d} must be >= 1")
    a = (d - 1) // (q - 1)
    return a, d - a * (q - 1)


def decompose_projective(d: int, q: int) -> tuple[int, int]:
    """(k, ell) with d-1 = k(q-1) + ell, 0 < ell <= q-1."""
    if d < 2:
        raise DomainError(f"d={d} must be >= 2")
    k = (d - 2) // (q - 1)
    return k, d - 1 - k * (q - 1)


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
    k, ell = decompose_projective(d, q)
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

    Equal to w2_rm_binary(n, d-1) except when k = d-2 = 0 and n >= 3,
    where it drops to 3*2^(n-2).  PRM(n, 1) has a single nonzero weight,
    so d = 1 has no next-to-minimal weight.
    """
    if n < 2:
        raise DomainError(f"n={n} must be >= 2")
    if d == 1:
        raise DomainError("PRM(n, 1) has no next-to-minimal weight")
    if not 2 <= d <= n:
        raise DomainError(f"d={d} outside [2, {n}] for n={n}")
    k = d - 2
    if k == 0 and n >= 3:
        return 3 * 2 ** (n - 2)
    return w2_rm_binary(n, d - 1)


@dataclass(frozen=True)
class W2Candidates:
    """The candidate set for the affine next-to-minimal weight: values
    base + c*q^(n-a-2) with c in {b-1, q-1, q} (integral ones only on the
    n-a-2 = -1 boundary)."""

    base: int
    options: tuple[int, ...]


def w2_rm_candidates(n: int, d: int, q: int) -> W2Candidates:
    GF(q)
    a, b = decompose_affine(d, q)
    if n - a - 2 < -1:
        raise DomainError(
            f"candidate formula inapplicable for n={n}, d={d}, q={q} (a={a})"
        )
    base = (q - b) * q ** (n - a - 1)
    step = Fraction(q) ** (n - a - 2)
    options = set()
    for c in (b - 1, q - 1, q):
        v = base + c * step
        if v.denominator == 1:
            options.add(int(v))
    cands = W2Candidates(base, tuple(sorted(options)))
    if q == 2 and 1 <= d <= n - 1:
        # binary closed form must be one of the candidates
        if w2_rm_binary(n, d) not in cands.options:
            raise RuntimeError(
                f"binary W2 {w2_rm_binary(n, d)} not among candidates {cands.options}"
            )
    return cands
