import pytest

from prmw import GF, DomainError, parse_poly
from prmw.poly import Poly

gf2 = GF(2)
gf3 = GF(3)


class TestEvaluate:
    quadric = parse_poly("X0*X3+X1*X2", 4, gf2)

    def test_quadric_values(self):
        assert self.quadric.evaluate((1, 0, 0, 1)) == 1
        assert self.quadric.evaluate((1, 1, 1, 1)) == 0  # 1+1=0 in GF(2)
        assert self.quadric.evaluate((0, 1, 1, 0)) == 1

    def test_arity_mismatch(self):
        with pytest.raises(DomainError):
            self.quadric.evaluate((1, 0, 1))

    def test_zero_to_the_zero(self):
        # constants must evaluate everywhere, including at the origin
        one = Poly(gf3, 2, {(0, 0): 1})
        assert one.evaluate((0, 0)) == 1

    def test_mod_q_reduction(self):
        f = parse_poly("2*X0+2*X1", 2, gf3)
        assert f.evaluate((2, 2)) == (2 * 2 + 2 * 2) % 3


class TestParser:
    def test_plain_monomials(self):
        f = parse_poly("X0*X3+X1*X2", 4, gf2)
        assert f.terms == {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1}

    def test_coefficients_and_powers(self):
        f = parse_poly("2*X1^2+X0*X2+1", 3, gf3)
        assert f.terms == {(0, 2, 0): 2, (1, 0, 1): 1, (0, 0, 0): 1}

    def test_whitespace_tolerated(self):
        assert parse_poly(" X0 * X1 + 1 ", 2, gf2) == parse_poly("X0*X1+1", 2, gf2)

    def test_coefficient_reduction(self):
        assert parse_poly("2*X0", 1, gf2).is_zero()
        assert parse_poly("X0+X0", 1, gf2).is_zero()
        assert parse_poly("4*X0", 1, gf3).terms == {(1,): 1}

    def test_repeated_variable_multiplies(self):
        assert parse_poly("X0*X0", 1, gf2).terms == {(2,): 1}

    def test_variable_out_of_range(self):
        with pytest.raises(DomainError):
            parse_poly("X3", 3, gf2)

    @pytest.mark.parametrize("bad", ["", "X0+", "X0**X1", "Y0", "X0^", "3.5*X0"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(DomainError):
            parse_poly(bad, 2, gf2)

    def test_str_round_trip(self):
        for src in ["X0*X3+X1*X2", "2*X1^2+X0*X2+1", "1"]:
            f = parse_poly(src, 4, gf3)
            assert parse_poly(str(f), 4, gf3) == f


class TestInvariants:
    def test_no_zero_coefficients_stored(self):
        f = Poly(gf3, 2, {(1, 0): 3, (0, 1): 2})
        assert f.terms == {(0, 1): 2}

    def test_exponent_length_enforced(self):
        with pytest.raises(DomainError):
            Poly(gf2, 2, {(1, 0, 0): 1})

    def test_homogeneity_tag(self):
        assert parse_poly("X0*X1+X2^2", 3, gf2).is_homogeneous()
        assert not parse_poly("X0*X1+X2", 3, gf2).is_homogeneous()

    def test_degree_of_zero_rejected(self):
        with pytest.raises(DomainError):
            Poly(gf2, 2, {}).degree()
