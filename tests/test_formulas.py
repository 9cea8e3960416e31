from fractions import Fraction

import pytest

from prmw import (
    CodeParams,
    DomainError,
    w1_prm,
    w1_rm,
    w2_prm_binary,
    w2_rm_binary,
    w2_rm_candidates,
)
from prmw.formulas import Expectation, avoiding_bounds, decompose_affine, expectation


class TestW1Rm:
    @pytest.mark.parametrize(
        "n,d,q,expected",
        [(3, 2, 2, 2), (2, 2, 3, 3), (2, 4, 3, 1), (4, 1, 2, 8), (3, 3, 2, 1)],
    )
    def test_values(self, n, d, q, expected):
        assert w1_rm(n, d, q) == expected

    def test_full_space_is_one(self):
        assert w1_rm(2, 5, 3) == 1  # d past n(q-1)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(DomainError):
            w1_rm(3, 0, 2)


class TestW1Prm:
    @pytest.mark.parametrize(
        "r,d,q,expected",
        [(3, 2, 2, 4), (1, 3, 2, 1), (4, 3, 2, 4), (2, 2, 3, 6)],
    )
    def test_values(self, r, d, q, expected):
        assert w1_prm(r, d, q) == expected

    def test_one_up_to_k(self):
        # d = 4, q = 2 gives k = 2
        for r in range(0, 3):
            assert w1_prm(r, 4, 2) == 1

    def test_rejects_d_below_two(self):
        with pytest.raises(DomainError):
            w1_prm(3, 1, 2)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_identity_with_affine_minimum(self, q):
        # the projective minimum weight at r = n is the affine one at d-1
        for n in range(1, 7):
            for d in range(2, n * (q - 1) + 1):
                assert w1_prm(n, d, q) == w1_rm(n, d - 1, q)


class TestW2RmBinary:
    @pytest.mark.parametrize("n,e,expected", [(4, 1, 16), (5, 3, 6), (4, 3, 4), (2, 1, 4), (5, 1, 32)])
    def test_values(self, n, e, expected):
        assert w2_rm_binary(n, e) == expected

    @pytest.mark.parametrize("n,e", [(3, 0), (3, 3), (2, 2)])
    def test_range(self, n, e):
        with pytest.raises(DomainError):
            w2_rm_binary(n, e)

    def test_above_minimum(self):
        for n in range(2, 8):
            for e in range(1, n):
                assert w2_rm_binary(n, e) > w1_rm(n, e, 2)


class TestW2PrmBinary:
    @pytest.mark.parametrize("n,d,expected", [(4, 2, 12), (5, 3, 12), (2, 2, 4), (3, 3, 4), (6, 2, 48)])
    def test_values(self, n, d, expected):
        assert w2_prm_binary(n, d) == expected

    def test_no_next_to_minimal_for_order_one(self):
        with pytest.raises(DomainError):
            w2_prm_binary(3, 1)

    @pytest.mark.parametrize("n,d", [(3, 4), (1, 2)])
    def test_range(self, n, d):
        with pytest.raises(DomainError):
            w2_prm_binary(n, d)

    def test_strictly_below_affine_value_for_quadrics(self):
        # the one case where the projective value drops
        for n in range(3, 9):
            assert w2_prm_binary(n, 2) == 3 * 2 ** (n - 2) < 2**n == w2_rm_binary(n, 1)

    def test_agrees_with_affine_value_elsewhere(self):
        for n in range(2, 9):
            for d in range(3, n + 1):
                assert w2_prm_binary(n, d) == w2_rm_binary(n, d - 1)
        assert w2_prm_binary(2, 2) == w2_rm_binary(2, 1)

    def test_above_minimum(self):
        for n in range(2, 8):
            for d in range(2, n + 1):
                assert w2_prm_binary(n, d) > w1_prm(n, d, 2)


class TestCandidates:
    def test_gf3(self):
        assert w2_rm_candidates(2, 2, 3) == (4, 5, 6)

    def test_gf2_contains_closed_form(self):
        assert w2_rm_candidates(4, 2, 2) == (4, 6, 8) and w2_rm_binary(4, 2) == 6

    def test_gf2_order_one(self):
        c = w2_rm_candidates(3, 1, 2)
        assert c == (4, 6, 8) and 2**3 in c

    def test_boundary_keeps_integral_options(self):
        # n-a-2 = -1: only integer-valued candidates survive
        assert w2_rm_candidates(2, 3, 3) == (2, 3)

    def test_inapplicable_raises(self):
        with pytest.raises(DomainError):
            w2_rm_candidates(2, 5, 3)

    def test_membership_of_binary_closed_form(self):
        for n in range(2, 7):
            for d in range(1, n):
                assert w2_rm_binary(n, d) in w2_rm_candidates(n, d, 2)

    def test_options_at_least_base(self):
        for q in (2, 3, 5):
            for n in (2, 3, 4):
                for d in range(1, (n - 1) * (q - 1) + 1):
                    # the candidates are the minimum weight plus c*q^(n-a-2), c >= 0
                    c = w2_rm_candidates(n, d, q)
                    assert c and all(v >= w1_rm(n, d, q) for v in c)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
    def test_integer_arithmetic_matches_fraction_reference(self, q):
        # every valid RM order, the n-a-2 = -1 boundary (d = n(q-1)) included
        for n in range(1, 7):
            for d in range(1, n * (q - 1) + 1):
                a, b = decompose_affine(d, q)
                base = (q - b) * q ** (n - a - 1)
                values = [base + c * Fraction(q) ** (n - a - 2) for c in (b - 1, q - 1, q)]
                expected = sorted({int(v) for v in values if v.denominator == 1})
                assert w2_rm_candidates(n, d, q) == tuple(expected)


class TestDecompositions:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_affine(self, q):
        for d in range(1, 4 * (q - 1) + 1):
            a, b = decompose_affine(d, q)
            assert d == a * (q - 1) + b and 0 < b <= q - 1



class TestAvoidingBounds:
    def test_exact_fraction(self):
        # GF(3) PRM(1,3): k = 0, ell = 2, hyperplane bound 4/3
        assert avoiding_bounds(1, 3, 3) == (0, (4, 3), 2)
        assert avoiding_bounds(4, 2, 2) == (0, (12, 1), 16)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_consistent_with_projective_minimum(self, q):
        # (q-ell) q^(n-k-1) is W1 of PRM(n, d), so the bounds are
        # (1 + 1/q) W1 and W1 + q^(n-k-1)
        for n in range(1, 5):
            for d in range(2, n * (q - 1) + 2):
                k, hyperplane, subspace = avoiding_bounds(n, d, q)
                w1 = w1_prm(n, d, q)
                assert 0 <= k <= n - 1
                assert Fraction(*hyperplane) == Fraction(q + 1, q) * w1
                assert subspace == w1 + q ** (n - k - 1)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
    def test_integer_pair_matches_fraction_reference(self, q):
        # the pair is the reference's numerator and denominator, in lowest
        # terms, on the whole PRM range
        for n in range(1, 7):
            for d in range(2, n * (q - 1) + 2):
                k, ell = decompose_affine(d - 1, q)
                ref = (q + 1) * (q - ell) * Fraction(q) ** (n - k - 2)
                assert avoiding_bounds(n, d, q)[1] == (ref.numerator, ref.denominator)


class TestExpectation:
    def test_binary_closed_forms(self):
        for n in range(1, 8):
            for d in range(n + 1):
                exp = expectation(CodeParams("rm", 2, n, d))
                assert exp.w1 == (w1_rm(n, d, 2) if d >= 1 else None)
                assert exp.w2 == ((w2_rm_binary(n, d),) if 1 <= d <= n - 1 else ())
                assert exp.w2_text == (str(exp.w2[0]) if exp.w2 else "")
            for d in range(1, n + 2):
                exp = expectation(CodeParams("prm", 2, n, d))
                assert exp.w1 == (w1_prm(n, d, 2) if d >= 2 else None)
                assert exp.w2 == ((w2_prm_binary(n, d),) if 2 <= d <= n else ())
                assert exp.w2_text == (str(exp.w2[0]) if exp.w2 else "")

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_qary_rm_candidate_set(self, q):
        assert expectation(CodeParams("rm", q, 2, 0)) == Expectation(None)
        for n in range(1, 4):
            for d in range(1, n * (q - 1) + 1):
                exp = expectation(CodeParams("rm", q, n, d))
                options = w2_rm_candidates(n, d, q)
                assert exp.w1 == w1_rm(n, d, q)
                assert exp.w2 == options
                assert exp.w2_text == "in {%s}" % ",".join(map(str, options))

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_qary_prm_renders_bound_without_asserting(self, q):
        assert expectation(CodeParams("prm", q, 2, 1)) == Expectation(None)
        for n in range(1, 4):
            for d in range(2, n * (q - 1) + 2):
                exp = expectation(CodeParams("prm", q, n, d))
                options = w2_rm_candidates(n, d - 1, q)
                assert exp.w1 == w1_prm(n, d, q)
                assert exp.w2 == ()
                assert exp.w2_text == "<= max{%s}" % ",".join(map(str, options))

    def test_check_verdicts(self):
        assert Expectation(None).check(1, 2) is None
        assert Expectation(None, (), "<= max{4,5}").check(1, 99) is None
        exact = Expectation(4, (6,), "6")
        assert exact.check(4, 6) is True
        assert exact.check(4, 7) is False
        assert exact.check(3, 6) is False
        assert exact.check(4, None) is False
        cands = Expectation(2, (4, 5, 6), "in {4,5,6}")
        assert cands.check(2, 5) is True
        assert cands.check(2, 7) is False
        assert Expectation(2).check(2, None) is True
