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

from itertools import product

from .errors import BudgetExceeded, DomainError
from .gfp import GF

POINT_ENUM_CAP = 1 << 24

# bump whenever the enumeration order contract changes
POINT_ORDER_VERSION = "lex-std-v1"

Point = tuple[int, ...]


def affine_size(n: int, q: int) -> int:
    return q**n


def projective_size(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def affine_points(n: int, gf: GF) -> list[Point]:
    """All q^n points of affine n-space, ascending lexicographic."""
    if n < 1:
        raise DomainError(f"affine dimension n={n} must be >= 1")
    size = affine_size(n, gf.q)
    if size > POINT_ENUM_CAP:
        raise BudgetExceeded(f"affine enumeration needs {size} points, cap is {POINT_ENUM_CAP}")
    return list(product(gf.elements(), repeat=n))


def projective_points(n: int, gf: GF) -> list[Point]:
    """All N = (q^(n+1)-1)/(q-1) standard representatives of P^n(GF(q)).

    Points with first nonzero coordinate at index i are exactly
    (0,)*i + (1,) + tail; descending i gives ascending lexicographic
    order overall.
    """
    if n < 1:
        raise DomainError(f"projective dimension n={n} must be >= 1")
    size = projective_size(n, gf.q)
    if size > POINT_ENUM_CAP:
        raise BudgetExceeded(f"projective enumeration needs {size} points, cap is {POINT_ENUM_CAP}")
    pts: list[Point] = []
    for i in range(n, -1, -1):
        zeros = (0,) * i
        for tail in product(gf.elements(), repeat=n - i):
            pts.append(zeros + (1,) + tail)
    return pts


def standardize(vec: Point, gf: GF) -> Point:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    for c in vec:
        if c:
            if c == 1:
                return tuple(vec)
            s = gf.inv(c)
            return tuple(gf.mul(s, x) for x in vec)
    raise DomainError("zero vector has no projective representative")

