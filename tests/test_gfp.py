import pytest

from prmw import GF, DomainError
from prmw.gfp import is_prime


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15])
def test_composite_modulus_rejected(q):
    with pytest.raises(DomainError):
        GF(q)


def test_prime_but_unsupported_rejected():
    with pytest.raises(DomainError):
        GF(17)


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
