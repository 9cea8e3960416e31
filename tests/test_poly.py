from itertools import product

import pytest

from prmw import GF, DomainError, affine_points, lift_affine, parse_poly, projective_points
from prmw.poly import Poly

gf2 = GF(2)
gf3 = GF(3)


def affine_weight(g, gf):
    return sum(1 for p in affine_points(g.nvars, gf) if g.evaluate(p))


def proj_support(f, gf):
    return [p for p in projective_points(f.nvars - 1, gf) if f.evaluate(p)]


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
        one = Poly.constant(gf3, 2, 1)
        assert one.evaluate((0, 0)) == 1

    def test_mod_q_reduction(self):
        f = parse_poly("2*X0+2*X1", 2, gf3)
        assert f.evaluate((2, 2)) == (2 * 2 + 2 * 2) % 3


class TestHomogenize:
    # affine variables are X0..X(n-1); homogenization prepends a new X0
    # and shifts the old names up by one

    def test_shift_and_fill(self):
        g = parse_poly("X0*X1+X0", 2, gf2)
        assert g.homogenize() == parse_poly("X1*X2+X0*X1", 3, gf2)

    def test_degree_zero_identity(self):
        g = Poly.constant(gf2, 2, 1)
        h = g.homogenize()
        assert h == Poly.constant(gf2, 3, 1)
        assert h.is_homogeneous() and h.degree() == 0

    def test_gf3_square(self):
        g = parse_poly("X0^2+X1", 2, gf3)
        assert g.homogenize() == parse_poly("X1^2+X0*X2", 3, gf3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            Poly.zero(gf2, 2).homogenize()

    @pytest.mark.parametrize("q", [2, 3])
    def test_round_trip_on_reduced_polys(self, q):
        # homogenize then drop the new variable's exponent (set it to 1)
        # is the identity for representatives with all exponents < q
        gf = GF(q)
        monos = list(product(range(q), repeat=2))
        for coeffs in product(range(q), repeat=len(monos)):
            g = Poly(gf, 2, {e: c for e, c in zip(monos, coeffs) if c})
            if g.is_zero():
                continue
            assert {e[1:]: c for e, c in g.homogenize().terms.items()} == g.terms


class TestLift:
    def test_linear(self):
        g = parse_poly("X0", 2, gf2)
        assert lift_affine(g, 2) == parse_poly("X0*X1", 3, gf2)

    def test_with_constant_term(self):
        g = parse_poly("X0*X1+1", 3, gf2)
        assert lift_affine(g, 3) == parse_poly("X0*X1*X2+X0^3", 4, gf2)

    def test_gf3_square(self):
        g = parse_poly("X0^2+X1", 2, gf3)
        assert lift_affine(g, 3) == parse_poly("X0*X1^2+X0^2*X2", 3, gf3)

    def test_degree_too_large(self):
        g = parse_poly("X0*X1", 2, gf2)
        with pytest.raises(DomainError):
            lift_affine(g, 2)
        with pytest.raises(DomainError):
            lift_affine(Poly.zero(gf2, 2), 3)

    def test_weight_check_example(self):
        # affine weight of X0*X1+1 on GF(2)^3 equals the projective
        # weight of its degree-3 lift: both 6 (the two zeros of x*y+1
        # are the points with x = y = 1)
        g = parse_poly("X0*X1+1", 3, gf2)
        lifted = lift_affine(g, 3)
        assert affine_weight(g, gf2) == 6
        assert len(proj_support(lifted, gf2)) == 6

    @pytest.mark.parametrize(
        "q,n,d",
        [(2, 2, 2), (2, 3, 3), (3, 2, 3)],
    )
    def test_weight_preservation_exhaustive(self, q, n, d):
        # every nonzero reduced polynomial of degree <= d-1 lifts to a
        # homogeneous degree-d polynomial of equal weight supported in
        # the chart X0 = 1
        gf = GF(q)
        monos = [
            e
            for e in product(range(q), repeat=n)
            if sum(e) <= d - 1
        ]
        pts = projective_points(n, gf)
        for coeffs in product(range(q), repeat=len(monos)):
            terms = {e: c for e, c in zip(monos, coeffs) if c}
            if not terms:
                continue
            g = Poly(gf, n, terms)
            lifted = lift_affine(g, d)
            assert lifted.is_homogeneous() and lifted.degree() == d
            support = [p for p in pts if lifted.evaluate(p)]
            assert all(p[0] == 1 for p in support)
            assert len(support) == affine_weight(g, gf)


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
            Poly.zero(gf2, 2).degree()
