"""Deterministic enumeration of affine and projective space over GF(q).

The enumeration order fixed here is normative: it is the column order of
every generator matrix and the index space of every support set, and it
is stamped into serialized artifacts as ``POINT_ORDER_VERSION``.

Affine points are all of GF(q)^n in ascending lexicographic order (the
coordinate vector read as a base-q numeral).  Projective points are the
standard representatives (first nonzero coordinate equal to 1), again in
ascending lexicographic order on the raw coordinate vector.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, DomainError
from .gfp import GF

POINT_ENUM_CAP = 1 << 24
# entries of one array spanning every point: a code's monomials x points
# evaluation matrix, or the subspaces x forms x points incidence product
ENTRY_CAP = 1 << 26

# bump whenever the enumeration order contract changes
POINT_ORDER_VERSION = "lex-std-v1"

Point = tuple[int, ...]


def affine_size(n: int, q: int) -> int:
    return q**n


def projective_size(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def _lex(q: int, m: int) -> np.ndarray:
    """All of GF(q)^m, one uint8 row per vector, ascending lexicographic."""
    return np.indices((q,) * m, dtype=np.uint8).reshape(m, q**m).T


def affine_array(n: int, q: int) -> np.ndarray:
    """The q^n points of affine n-space as uint8 rows, ascending
    lexicographic."""
    if n < 1:
        raise DomainError(f"affine dimension n={n} must be >= 1")
    size = affine_size(n, q)
    if size > POINT_ENUM_CAP:
        raise BudgetExceeded(f"affine enumeration needs {size} points, cap is {POINT_ENUM_CAP}")
    return np.ascontiguousarray(_lex(q, n))


def projective_array(n: int, q: int) -> np.ndarray:
    """The N = (q^(n+1)-1)/(q-1) standard representatives of P^n(GF(q))
    as uint8 rows.

    Points with first nonzero coordinate at index i are exactly
    (0,)*i + (1,) + tail; descending i gives ascending lexicographic
    order overall.
    """
    if n < 1:
        raise DomainError(f"projective dimension n={n} must be >= 1")
    size = projective_size(n, q)
    if size > POINT_ENUM_CAP:
        raise BudgetExceeded(f"projective enumeration needs {size} points, cap is {POINT_ENUM_CAP}")
    pts = np.zeros((size, n + 1), dtype=np.uint8)
    start = 0
    for i in range(n, -1, -1):
        stop = start + q ** (n - i)
        pts[start:stop, i] = 1
        pts[start:stop, i + 1 :] = _lex(q, n - i)
        start = stop
    return pts


def affine_points(n: int, gf: GF) -> list[Point]:
    """All q^n points of affine n-space, ascending lexicographic."""
    return list(map(tuple, affine_array(n, gf.q).tolist()))


def projective_points(n: int, gf: GF) -> list[Point]:
    """All N = (q^(n+1)-1)/(q-1) standard representatives of P^n(GF(q)),
    in the order of ``projective_array``."""
    return list(map(tuple, projective_array(n, gf.q).tolist()))
