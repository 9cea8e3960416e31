from itertools import product

import numpy as np
import pytest

from prmw import (
    GF,
    BudgetExceeded,
    CodeParams,
    DomainError,
    Poly,
    build,
    check_subspace_bounds,
    codeword_support,
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
from prmw.codes import homogeneous_monomials, rref
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
        # P^9/GF(2) has 109,221,651 subspaces of dimension 4, each cut out
        # by 5 forms: their values at the 1023 points are 558,668,744,865
        # entries, refused from that size before any subspace is built
        import prmw.geometry as G

        monkeypatch.setattr(G, "combinations", None)
        assert G.gaussian_binomial(10, 5, 2) == 109_221_651
        with pytest.raises(BudgetExceeded, match="needs 558668744865 entries, cap is 67108864"):
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
            assert check_subspace_bounds(codeword_support(code, [msg]), code.params) == []

    def test_quadric_codeword(self):
        f = parse_poly("X0*X3+X1*X2", 4, gf2)
        support = projective_support(f, 3, gf2)
        assert check_subspace_bounds([support], CodeParams("prm", 2, 3, 2)) == []

    def test_adversarial_single_point(self):
        # one point meets some plane in exactly 1 < W1_PRM(2, 2) = 2; the
        # lines' bound W1_PRM(1, 2) = 1 cannot be violated
        params = CodeParams("prm", 2, 3, 2)
        assert (w1_prm(1, 2, 2), w1_prm(2, 2, 2)) == (1, 2)
        violations = check_subspace_bounds([[0]], params)
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
        # a form over the basis monomials is the codeword whose message
        # is its values at the pivot columns of the RREF generator
        code = build(CodeParams("prm", 2, 2, 2))
        pts = projective_points(2, gf2)
        _, _, pivots = rref(code.gen, gf2)
        for coeffs in [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1), (1, 1, 1, 1, 1, 1)]:
            f = Poly(gf2, 3, dict(zip(code.basis_monomials, coeffs)))
            (row,) = codeword_support(code, [[f.evaluate(pts[c]) for c in pivots]])
            assert projective_support(f, 2, gf2) == tuple(np.flatnonzero(row).tolist())

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_matches_pointwise_evaluation(self, q):
        # random forms of degree up to 3q, so exponents >= q occur
        gf, rng = GF(q), np.random.default_rng(q)
        n = 3 if q < 5 else 2
        pts = projective_points(n, gf)
        for _ in range(25):
            monos = homogeneous_monomials(n + 1, int(rng.integers(1, 3 * q + 1)))
            picks = rng.choice(len(monos), size=min(4, len(monos)), replace=False)
            f = Poly(gf, n + 1, {monos[i]: int(rng.integers(1, q)) for i in picks})
            expected = tuple(i for i, p in enumerate(pts) if f.evaluate(p))
            assert projective_support(f, n, gf) == expected


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
        violations = check_subspace_bounds(batch, code.params)
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


def test_incidence_is_built_a_block_at_a_time():
    # the form values are computed a block of subspaces at a time, so the
    # build peaks near its boolean result, not at a float32 value per
    # (form, subspace, point); the incidence is the plain integer test
    import tracemalloc

    import prmw.geometry as G

    tracemalloc.start()
    try:
        forms, inc = G._subspaces.__wrapped__(7, 3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inc.shape == (3280, 3280) and peak < 2 * inc.nbytes
    pts = np.array(projective_points(7, gf3))
    assert np.array_equal(inc, (forms @ pts.T % 3 == 0).all(axis=1))


def test_meets_convert_the_incidence_a_block_at_a_time():
    # an incidence larger than F32_BLOCK entries is converted to float32 a
    # block of subspaces at a time, not as one 4-byte-per-entry copy, and
    # the blocked meets find the same first avoiders
    import tracemalloc

    import prmw.geometry as G
    from prmw.gfp import F32_BLOCK

    _, inc = G._subspaces(9, 2, 8)
    assert inc.size > F32_BLOCK
    rng = np.random.default_rng(9)
    rows = np.zeros((70, inc.shape[1]), dtype=bool)
    for row in rows[:-1]:
        # points off a random hyperplane, so the row misses it
        outside = np.flatnonzero(~inc[rng.integers(len(inc))])
        row[rng.choice(outside, size=int(rng.integers(1, len(outside))), replace=False)] = True
    rows[-1] = True  # meets every hyperplane
    tracemalloc.start()
    try:
        first = G._first_avoiders(rows, 9, 2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inc.nbytes + 4 * 4 * F32_BLOCK < 4 * inc.nbytes
    misses = (rows.astype(np.int64) @ inc.T.astype(np.int64)) == 0
    expected = np.where(misses.any(axis=1), misses.argmax(axis=1), -1)
    assert np.array_equal(first, expected) and first[-1] == -1 and (first[:-1] >= 0).all()
