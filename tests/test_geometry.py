from itertools import product

import numpy as np
import pytest

from prmw import (
    GF,
    BudgetExceeded,
    CodeParams,
    DomainError,
    Poly,
    affine_points,
    build,
    check_subspace_bounds,
    codeword_support,
    dehomogenize_on_chart,
    enumerate_subspaces,
    find_avoiding_subspace,
    find_avoiding_subspace_at_least,
    gaussian_binomial,
    parse_poly,
    projective_points,
    projective_support,
    subspace_from_forms,
    w1_prm,
    zero_set_is_hyperplane_union,
)
from prmw.geometry import BoundViolation

gf2 = GF(2)
gf3 = GF(3)


def nonzero_messages(dim, q):
    for msg in product(range(q), repeat=dim):
        if any(msg):
            yield msg


class TestEnumeration:
    def test_counts_p3_gf2(self):
        assert len(enumerate_subspaces(3, gf2, 2)) == 15  # hyperplanes
        assert len(enumerate_subspaces(3, gf2, 1)) == 35  # lines
        assert len(enumerate_subspaces(2, gf2, 1)) == 7

    @pytest.mark.parametrize("n,s,q", [(2, 0, 2), (2, 1, 3), (3, 1, 2), (3, 0, 3), (2, 1, 5)])
    def test_count_matches_gaussian_binomial(self, n, s, q):
        subs = enumerate_subspaces(n, GF(q), s)
        assert len(subs) == gaussian_binomial(n + 1, s + 1, q)
        assert len({sub.point_indices for sub in subs}) == len(subs)

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3)])
    def test_hyperplane_point_duality(self, n, q):
        pts = projective_points(n, GF(q))
        assert len(enumerate_subspaces(n, GF(q), n - 1)) == len(pts)

    @pytest.mark.parametrize("n,s,q", [(3, 1, 2), (2, 1, 3)])
    def test_subspace_internal_invariants(self, n, s, q):
        gf = GF(q)
        pts = projective_points(n, gf)
        for sub in enumerate_subspaces(n, gf, s):
            assert len(sub.point_indices) == (q ** (s + 1) - 1) // (q - 1)
            assert len(sub.forms) == n - s
            for i in sub.point_indices:
                for form in sub.forms:
                    assert sum(a * c for a, c in zip(form, pts[i])) % q == 0

    def test_dimension_range(self):
        with pytest.raises(DomainError):
            enumerate_subspaces(3, gf2, 3)
        with pytest.raises(DomainError):
            enumerate_subspaces(3, gf2, -1)

    def test_cap(self, monkeypatch):
        # P^9/GF(2) has 109,221,651 subspaces of dimension 4: refused
        # from their count, before any is built
        import prmw.geometry as G

        monkeypatch.setattr(G, "combinations", None)
        assert G.gaussian_binomial(10, 5, 2) == 109_221_651
        with pytest.raises(BudgetExceeded, match="needs 109221651 subspaces"):
            enumerate_subspaces(9, gf2, 4)

    def test_subspace_from_forms(self):
        h = subspace_from_forms([(1, 0, 0)], 2, gf2)
        assert h.dim == 1 and h.point_indices == (0, 1, 2)
        with pytest.raises(DomainError):
            subspace_from_forms([(1, 0, 0), (1, 0, 0)], 2, gf2)


class TestAvoidingSubspace:
    def test_product_support_p2(self):
        f = parse_poly("X0*X1", 3, gf2)
        support = projective_support(f, 2, gf2)
        pts = projective_points(2, gf2)
        assert [pts[i] for i in support] == [(1, 1, 0), (1, 1, 1)]
        found = find_avoiding_subspace([support], 2, gf2, 1)[0]
        assert found is not None
        assert not set(found.point_indices) & set(support)
        # the hyperplane X0 = 0 avoids it as well
        x0 = subspace_from_forms([(1, 0, 0)], 2, gf2)
        assert not set(x0.point_indices) & set(support)

    def test_whole_space_has_no_avoider(self):
        support = range(len(projective_points(2, gf2)))
        assert find_avoiding_subspace([support], 2, gf2, 1)[0] is None

    def test_quadric_line(self):
        f = parse_poly("X0*X3+X1*X2", 4, gf2)
        support = projective_support(f, 3, gf2)
        found = find_avoiding_subspace([support], 3, gf2, 1)[0]
        assert found is not None and found.dim == 1
        # the specific line X0 = X1 = 0 avoids the support
        line = subspace_from_forms([(1, 0, 0, 0), (0, 1, 0, 0)], 3, gf2)
        assert not set(line.point_indices) & set(support)
        # but no hyperplane does
        assert find_avoiding_subspace([support], 3, gf2, 2)[0] is None
        best = find_avoiding_subspace_at_least([support], 3, gf2, 0)[0]
        assert best.dim == 1

    def test_empty_support_rejected(self):
        with pytest.raises(DomainError):
            find_avoiding_subspace([[]], 2, gf2, 1)

    def test_first_in_enumeration_order(self):
        f = parse_poly("X0*X1", 3, gf2)
        support = projective_support(f, 2, gf2)
        subs = enumerate_subspaces(2, gf2, 1)
        first = next(s for s in subs if not set(s.point_indices) & set(support))
        assert find_avoiding_subspace([support], 2, gf2, 1)[0] == first


class TestSubspaceBounds:
    def test_all_codewords_prm_2_2(self):
        code = build(CodeParams("prm", 2, 2, 2))
        for msg in nonzero_messages(code.dimension, 2):
            assert check_subspace_bounds(codeword_support(code, [msg]), code.params, dims=[1]) == []

    def test_quadric_codeword(self):
        f = parse_poly("X0*X3+X1*X2", 4, gf2)
        support = projective_support(f, 3, gf2)
        assert check_subspace_bounds([support], CodeParams("prm", 2, 3, 2)) == []

    def test_adversarial_single_point(self):
        # one point meets some plane in exactly 1 < W1_PRM(2, 2) = 2
        params = CodeParams("prm", 2, 3, 2)
        assert w1_prm(2, 2, 2) == 2
        violations = check_subspace_bounds([[0]], params, dims=[2])
        assert violations and all(v.meet_size == 1 and v.required == 2 for v in violations)

    def test_requires_projective_order(self):
        with pytest.raises(DomainError):
            check_subspace_bounds([[0]], CodeParams("prm", 2, 3, 1))


class TestHyperplaneUnion:
    def test_product_of_forms(self):
        res = zero_set_is_hyperplane_union(parse_poly("X0*X1", 3, gf2), 2, gf2)
        assert res.is_union and res.uncovered == ()
        assert sorted(h.forms[0] for h in res.hyperplanes) == [(0, 1, 0), (1, 0, 0)]

    def test_irreducible_quadric(self):
        res = zero_set_is_hyperplane_union(parse_poly("X0*X3+X1*X2", 4, gf2), 3, gf2)
        assert not res.is_union
        assert len(res.uncovered) == 9  # the whole quadric is uncovered

    def test_power_of_form(self):
        res = zero_set_is_hyperplane_union(parse_poly("X0^2", 3, gf2), 2, gf2)
        assert res.is_union
        assert [h.forms[0] for h in res.hyperplanes] == [(1, 0, 0)]

    def test_nowhere_nonzero_rejected(self):
        # an ideal generator vanishes on every point
        vanishing = parse_poly("X1^2*X0+X0^2*X1", 3, gf2)
        with pytest.raises(DomainError):
            zero_set_is_hyperplane_union(vanishing, 2, gf2)


class TestDehomogenize:
    def test_product_on_chart(self):
        f = parse_poly("X0*X1", 3, gf2)
        h0 = subspace_from_forms([(1, 0, 0)], 2, gf2)
        g = dehomogenize_on_chart(f, h0)
        assert g.nvars == 2 and g.degree() <= 1
        assert sum(1 for p in affine_points(2, gf2) if g.evaluate(p)) == 2

    def test_square_becomes_constant(self):
        f = parse_poly("X0^2", 3, gf2)
        h0 = subspace_from_forms([(1, 0, 0)], 2, gf2)
        g = dehomogenize_on_chart(f, h0)
        assert g == Poly.constant(gf2, 2, 1)
        assert sum(1 for p in affine_points(2, gf2) if g.evaluate(p)) == 4

    def test_meeting_hyperplane_rejected(self):
        f = parse_poly("X0*X3+X1*X2", 4, gf2)
        h0 = subspace_from_forms([(1, 0, 0, 0)], 3, gf2)
        with pytest.raises(DomainError):
            dehomogenize_on_chart(f, h0)  # (0,1,1,0) is in the support

    def test_non_hyperplane_rejected(self):
        f = parse_poly("X0*X1", 3, gf2)
        point = subspace_from_forms([(0, 1, 0), (0, 0, 1)], 2, gf2)
        with pytest.raises(DomainError):
            dehomogenize_on_chart(f, point)

    def test_inhomogeneous_rejected(self):
        f = parse_poly("X0*X1+X2", 3, gf2)
        h = subspace_from_forms([(1, 0, 0)], 2, gf2)
        with pytest.raises(DomainError):
            dehomogenize_on_chart(f, h)

    @pytest.mark.parametrize("q,n,d", [(2, 2, 2), (3, 2, 2)])
    def test_weight_preserved_on_every_avoidable_codeword(self, q, n, d):
        # the chart reduction drops the degree and keeps the weight
        gf = GF(q)
        code = build(CodeParams("prm", q, n, d))
        apts = affine_points(n, gf)
        reduced = 0
        for msg in nonzero_messages(code.dimension, q):
            support = tuple(np.flatnonzero(codeword_support(code, [msg])[0]).tolist())
            if not support:
                continue
            h = find_avoiding_subspace([support], n, gf, n - 1)[0]
            if h is None:
                continue
            f = code.poly_for_message(msg)
            g = dehomogenize_on_chart(f, h)
            assert g.degree() <= d - 1
            assert sum(1 for p in apts if g.evaluate(p)) == len(support)
            reduced += 1
        assert reduced > 0


class TestQuadricPencil:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_three_hyperplanes_split_the_support_evenly(self, n):
        # exactly three hyperplanes contain the avoided line X0=X1=0, and
        # each carries a quarter-sized slice 2^(n-2) of the quadric support
        f = parse_poly("X0*X3+X1*X2", n + 1, gf2)
        support = set(projective_support(f, n, gf2))
        line_forms = [(1,) + (0,) * n, (0, 1) + (0,) * (n - 1)]
        line = subspace_from_forms(line_forms, n, gf2)
        assert not set(line.point_indices) & support
        through = [
            h
            for h in enumerate_subspaces(n, gf2, n - 1)
            if set(line.point_indices) <= set(h.point_indices)
        ]
        assert len(through) == 3
        slices = [set(h.point_indices) & support for h in through]
        assert all(len(s) == 2 ** (n - 2) for s in slices)
        assert set().union(*slices) == support


class TestSupportExtraction:
    def test_arity_checked(self):
        with pytest.raises(DomainError):
            projective_support(parse_poly("X0", 2, gf2), 2, gf2)

    def test_matches_codeword_support(self):
        code = build(CodeParams("prm", 2, 2, 2))
        for msg in [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1), (1, 1, 1, 1, 1, 1)]:
            f = code.poly_for_message(msg)
            (row,) = codeword_support(code, [msg])
            assert projective_support(f, 2, gf2) == tuple(np.flatnonzero(row).tolist())


# -- batched predicates against a per-support reference ------------------------


def reference_violations(support, params, dims):
    """The violations of one support, by plain set intersection."""
    out = []
    for s in dims:
        required = w1_prm(s, params.d, params.q)
        for sub in enumerate_subspaces(params.n, GF(params.q), s):
            meet = len(set(sub.point_indices) & set(support))
            if 0 < meet < required:
                out.append((s, sub, meet, required))
    return out


def reference_avoider(support, n, gf, r):
    subs = enumerate_subspaces(n, gf, r)
    return next((sub for sub in subs if not set(sub.point_indices) & set(support)), None)


def reference_avoider_at_least(support, n, gf, rmin):
    for r in range(n - 1, rmin - 1, -1):
        sub = reference_avoider(support, n, gf, r)
        if sub is not None:
            return sub
    return None


def random_supports(npts, count, seed):
    """Nonempty supports of every size from a single point to all points,
    codeword-like or not."""
    rng = np.random.default_rng(seed)
    out = [(0,), tuple(range(npts))]
    for _ in range(count):
        size = int(rng.integers(1, npts + 1))
        out.append(tuple(sorted(rng.choice(npts, size=size, replace=False).tolist())))
    return out


class TestBatchedPredicates:
    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
    def test_match_per_support_reference(self, q, n):
        gf = GF(q)
        batch = random_supports(len(projective_points(n, gf)), 30, seed=q * 10 + n)
        for d in (2, 3):
            params = CodeParams("prm", q, n, d)
            dims = range(1, n) if n > 2 else [1]
            expected = [
                BoundViolation(row, *v)
                for row, support in enumerate(batch)
                for v in reference_violations(support, params, dims)
            ]
            assert check_subspace_bounds(batch, params) == expected
        for r in range(n):
            assert find_avoiding_subspace(batch, n, gf, r) == [
                reference_avoider(sup, n, gf, r) for sup in batch
            ]
            assert find_avoiding_subspace_at_least(batch, n, gf, r) == [
                reference_avoider_at_least(sup, n, gf, r) for sup in batch
            ]

    def test_codeword_batch_matches_reference(self):
        code = build(CodeParams("prm", 3, 2, 2))
        batch = codeword_support(code, list(nonzero_messages(code.dimension, 3)))
        assert check_subspace_bounds(batch, code.params) == []
        assert find_avoiding_subspace(batch, 2, gf3, 1) == [
            reference_avoider(np.flatnonzero(sup).tolist(), 2, gf3, 1) for sup in batch
        ]

    def test_planted_violations(self):
        # a point meets the 7 planes of P^3(GF(2)) through it in 1 < 2
        # points; two points meet the 4 + 4 planes through only one of them
        code = build(CodeParams("prm", 2, 3, 2))
        good = [
            tuple(np.flatnonzero(row).tolist())
            for row in codeword_support(code, [(1,) + (0,) * 9, (0, 1) + (0,) * 8])
        ]
        batch = [good[0], (0,), good[1], (0, 1)]
        violations = check_subspace_bounds(batch, code.params, dims=[2])
        assert [v.row for v in violations] == [1] * 7 + [3] * 8
        assert all(v.s == 2 and v.meet_size == 1 and v.required == 2 for v in violations)
        assert all(set(v.subspace.point_indices) & set(batch[v.row]) for v in violations)

    def test_empty_batch(self):
        params = CodeParams("prm", 2, 3, 2)
        assert check_subspace_bounds([], params) == []
        assert find_avoiding_subspace([], 3, gf2, 2) == []
        assert find_avoiding_subspace_at_least([], 3, gf2, 0) == []

    def test_empty_support_in_batch_rejected(self):
        with pytest.raises(DomainError):
            find_avoiding_subspace([(0,), ()], 2, gf2, 1)
        with pytest.raises(DomainError):
            find_avoiding_subspace_at_least([(0,), ()], 2, gf2, 0)

    def test_support_index_out_of_range_rejected(self):
        params = CodeParams("prm", 2, 2, 2)
        for bad in [(7,), (-1,)]:
            with pytest.raises(DomainError):
                check_subspace_bounds([(0,), bad], params)
            with pytest.raises(DomainError):
                find_avoiding_subspace([bad], 2, gf2, 1)

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
    def test_boolean_matrix_matches_index_form(self, q, n):
        gf = GF(q)
        npts = len(projective_points(n, gf))
        batch = random_supports(npts, 30, seed=q * 100 + n)
        matrix = np.zeros((len(batch), npts), dtype=bool)
        for row, support in zip(matrix, batch):
            row[list(support)] = True
        for d in (2, 3):
            params = CodeParams("prm", q, n, d)
            assert check_subspace_bounds(matrix, params) == check_subspace_bounds(batch, params)
        for r in range(n):
            for find in (find_avoiding_subspace, find_avoiding_subspace_at_least):
                assert find(matrix, n, gf, r) == find(batch, n, gf, r)

    def test_boolean_matrix_shape_checked(self):
        params = CodeParams("prm", 2, 2, 2)
        for shape in [(7,), (1, 1, 7), (2, 6)]:
            bad = np.ones(shape, dtype=bool)
            with pytest.raises(DomainError):
                check_subspace_bounds(bad, params)
            with pytest.raises(DomainError):
                find_avoiding_subspace(bad, 2, gf2, 1)
            with pytest.raises(DomainError):
                find_avoiding_subspace_at_least(bad, 2, gf2, 0)
        one_empty = np.zeros((2, 7), dtype=bool)
        one_empty[0, 0] = True
        for find in (find_avoiding_subspace, find_avoiding_subspace_at_least):
            with pytest.raises(DomainError, match="support is empty"):
                find(one_empty, 2, gf2, 0)
            with pytest.raises(DomainError, match="support is empty"):
                find([[]], 2, gf2, 0)
        # boolean rows one by one would read as the indices 0 and 1
        with pytest.raises(DomainError):
            check_subspace_bounds(list(one_empty), params)


def test_subspaces_built_only_when_reported(monkeypatch):
    # all points but the last meet every subspace of dimension >= 1, so
    # only the last point avoids them: one Subspace for the one result,
    # not one per cached subspace of each dimension tried
    import prmw.geometry as G

    built = []
    real = G._subspace

    def counted(forms, incidence):
        built.append(forms.shape)
        return real(forms, incidence)

    monkeypatch.setattr(G, "_subspace", counted)
    npts = len(projective_points(5, gf2))
    G._subspaces.cache_clear()
    try:
        (found,) = find_avoiding_subspace_at_least([range(npts - 1)], 5, gf2, 0)
    finally:
        G._subspaces.cache_clear()
    assert found is not None and found.dim == 0 and found.point_indices == (npts - 1,)
    assert len(built) <= 3
