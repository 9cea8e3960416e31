from functools import reduce

import pytest

from prmw import GF, DomainError
from prmw.gfp import SUPPORTED_PRIMES, is_prime


def _power(gf, a, e):
    return reduce(gf.mul, [a] * e, 1)


@pytest.mark.parametrize("q", SUPPORTED_PRIMES)
def test_field_axioms_exhaustive(q):
    # q <= 13, so all triples are checkable directly
    gf = GF(q)
    els = list(gf.elements())
    assert els == list(range(q))
    for a in els:
        assert gf.mul(a, 1) == a
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
        for b in els:
            assert gf.mul(a, b) == gf.mul(b, a)
            assert 0 <= gf.mul(a, b) < q
            for c in els:
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.mul(a, (b + c) % q) == (gf.mul(a, b) + gf.mul(a, c)) % q


@pytest.mark.parametrize("q", SUPPORTED_PRIMES)
def test_pow_q_is_identity(q):
    # the defining relation behind the affine vanishing ideal
    gf = GF(q)
    for a in gf.elements():
        assert _power(gf, a, q) == a


def test_inverse_mod_three():
    assert GF(3).inv(2) == 2


def test_fermat_little_theorem():
    assert _power(GF(5), 2, 4) == 1


def test_zero_inversion_rejected():
    with pytest.raises(DomainError):
        GF(5).inv(0)


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15])
def test_composite_modulus_rejected(q):
    with pytest.raises(DomainError):
        GF(q)


def test_prime_but_unsupported_rejected():
    with pytest.raises(DomainError):
        GF(17)


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
