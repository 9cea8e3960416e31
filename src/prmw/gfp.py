"""The prime fields GF(q) for small prime q.

Field elements are plain ints kept in canonical residue form 0 <= a < q.
A ``GF`` instance is one validated modulus and its residues; the
arithmetic is done mod q where it is used, on ints or whole arrays
(inverses as ``pow(a, -1, q)``, array residues by ``reduce_mod``).
Products of residue matrices run as float32 BLAS products where every
sum stays below ``F32_EXACT``.  The bit-packed form for q = 2 is not
here: ``codes.pack_bits`` packs 0/1 rows into 64-bit words, and both
Gauss-Jordan elimination in ``codes`` and the binary counting kernel in
``weights`` use it.
"""

from __future__ import annotations

from .errors import DomainError

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

# float32 holds every integer up to 2^24 exactly: a float32 product of
# integer matrices is exact while every sum stays below this
F32_EXACT = 1 << 24
# entries of one block of a large float32 product, 256 KB: computed a
# block of rows at a time, a product and the passes that read it stay in
# a core's L2 cache, and no whole product is held at once
F32_BLOCK = 1 << 16


def reduce_mod(a, q: int):
    """``a mod q`` for an integer array, as a new array.

    Written ``a - a // q * q``: numpy divides an integer array by a scalar
    with a multiply and a shift, while its ``%`` divides entry by entry
    (about 15x slower on uint8 rows).  Floor division keeps the result in
    [0, q) for negative entries too."""
    return a - a // q * q


def require_f32_exact(bound: int, what: str) -> None:
    """Refuse a float32 product whose sums may reach ``F32_EXACT``."""
    if bound >= F32_EXACT:
        raise RuntimeError(f"{what}: sums up to {bound} are not exact in float32")


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
