import pytest

from prmw import GF, BudgetExceeded, DomainError, affine_points, projective_points, standardize
from prmw.points import POINT_ORDER_VERSION, affine_size, projective_size

GRID = [(n, q) for q in (2, 3, 5) for n in (1, 2, 3)]


def test_affine_line_gf2():
    assert affine_points(1, GF(2)) == [(0,), (1,)]


def test_affine_plane_gf2_order():
    pts = affine_points(2, GF(2))
    assert len(pts) == 4
    assert pts[0] == (0, 0) and pts[-1] == (1, 1)


def test_affine_count_27():
    assert len(affine_points(3, GF(3))) == 27


def test_projective_plane_gf2_exact_order():
    # normative column order for generator matrices
    assert projective_points(2, GF(2)) == [
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    ]


@pytest.mark.parametrize("n,q,count", [(2, 3, 13), (4, 2, 31), (3, 2, 15), (2, 5, 31)])
def test_projective_counts(n, q, count):
    pts = projective_points(n, GF(q))
    assert len(pts) == count == projective_size(n, q)


@pytest.mark.parametrize("n,q", GRID)
def test_lexicographic_and_duplicate_free(n, q):
    for pts in (affine_points(n, GF(q)), projective_points(n, GF(q))):
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)


@pytest.mark.parametrize("n,q", GRID)
def test_standard_representative_unique(n, q):
    # rescaling any listed point by any unit normalizes back to itself
    gf = GF(q)
    for p in projective_points(n, gf):
        assert p[[i for i, c in enumerate(p) if c][0]] == 1
        for s in range(1, q):
            assert standardize(tuple(gf.mul(s, c) for c in p), gf) == p


@pytest.mark.parametrize("n,q", GRID)
def test_affine_chart_embedding(n, q):
    gf = GF(q)
    embedded = [(1,) + p for p in affine_points(n, gf)]
    chart = [p for p in projective_points(n, gf) if p[0] == 1]
    assert sorted(embedded) == chart
    assert len(chart) == affine_size(n, q)


def test_enumeration_cap():
    with pytest.raises(BudgetExceeded):
        affine_points(30, GF(2))
    with pytest.raises(BudgetExceeded):
        projective_points(25, GF(2))
    with pytest.raises(BudgetExceeded):
        affine_points(25, GF(2))


def test_dimension_validation():
    with pytest.raises(DomainError):
        affine_points(0, GF(2))
    with pytest.raises(DomainError):
        projective_points(0, GF(2))


def test_standardize_zero_vector():
    with pytest.raises(DomainError):
        standardize((0, 0, 0), GF(3))


def test_order_contract_version_present():
    assert POINT_ORDER_VERSION
