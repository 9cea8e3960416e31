"""Sparse multivariate polynomials over GF(q).

Terms map an exponent vector to a nonzero coefficient.  Polynomials are
stored unreduced: no symbolic reduction modulo the vanishing ideals is
ever performed, membership questions are settled numerically by
evaluation.

Variables are named X0, X1, ... both in the parser and in str() output.
"""

from __future__ import annotations

import re

from .errors import DomainError
from .gfp import GF

Expvec = tuple[int, ...]


class Poly:
    """A polynomial in ``nvars`` variables with coefficients in ``gf``."""

    __slots__ = ("gf", "nvars", "terms")

    def __init__(self, gf: GF, nvars: int, terms: dict[Expvec, int]) -> None:
        if nvars < 1:
            raise DomainError(f"nvars={nvars} must be >= 1")
        canon: dict[Expvec, int] = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise DomainError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise DomainError(f"negative exponent in {exps}")
            c = coeff % gf.q
            if c:
                canon[tuple(exps)] = c
        self.gf = gf
        self.nvars = nvars
        self.terms = canon

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; DomainError on the zero polynomial."""
        if not self.terms:
            raise DomainError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.gf == self.gf
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.gf, self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({self.gf!r}, {self.nvars}, {self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            factors = [f"X{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return "+".join(parts)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: tuple[int, ...]) -> int:
        """Value at a point of GF(q)^nvars (0^0 = 1)."""
        if len(point) != self.nvars:
            raise DomainError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        q = self.gf.q
        total = 0
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e:
                    if x == 0:
                        v = 0
                        break
                    v = (v * pow(x, e, q)) % q
            total += v
        return total % q


# -- textual syntax ---------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)$|^X(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, nvars: int, gf: GF) -> Poly:
    """Parse ``c*X0^e0*X1^e1+...`` with coefficient and exponents optional.

    Examples: ``X0*X3+X1*X2``, ``2*X1^2+X0*X2+1``.  Variable indices must
    be below nvars.
    """
    src = text.replace(" ", "")
    if not src:
        raise DomainError("empty polynomial")
    terms: dict[Expvec, int] = {}
    for term_src in src.split("+"):
        if not term_src:
            raise DomainError(f"empty term in {text!r}")
        coeff = 1
        exps = [0] * nvars
        for factor in term_src.split("*"):
            m = _TERM_RE.match(factor)
            if m is None:
                raise DomainError(f"cannot parse factor {factor!r} in {text!r}")
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            else:
                i = int(m.group(2))
                if i >= nvars:
                    raise DomainError(
                        f"variable X{i} out of range: polynomial has {nvars} variables"
                    )
                exps[i] += int(m.group(3)) if m.group(3) else 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return Poly(gf, nvars, terms)
