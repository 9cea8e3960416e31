"""The prime fields GF(q) for small prime q.

Field elements are plain ints kept in canonical residue form 0 <= a < q.
A ``GF`` instance is one validated modulus and its residues; the
arithmetic is done mod q where it is used, on ints or whole arrays
(inverses as ``pow(a, -1, q)``).  The bit-packed form for q = 2 is not
here: ``codes.pack_bits`` packs 0/1 rows into 64-bit words, and both
Gauss-Jordan elimination in ``codes`` and the binary counting kernel in
``weights`` use it.
"""

from __future__ import annotations

from .errors import DomainError

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for i in range(2, int(n**0.5) + 1):
        if n % i == 0:
            return False
    return True


class GF:
    """The field GF(q), q prime, 2 <= q <= 13.

    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("q",)

    def __init__(self, q: int) -> None:
        if not isinstance(q, int):
            raise DomainError(f"q={q!r} must be an int, not {type(q).__name__}")
        if not is_prime(q):
            raise DomainError(f"q={q!r} is not prime")
        if q not in SUPPORTED_PRIMES:
            raise DomainError(f"q={q} unsupported; expected one of {SUPPORTED_PRIMES}")
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("GF instances are immutable")

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("GF", self.q))

    def elements(self) -> range:
        """All residues 0 .. q-1."""
        return range(self.q)
