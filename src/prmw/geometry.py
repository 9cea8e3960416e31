"""Projective linear subspaces and geometric predicates on supports.

Subspaces are enumerated as canonical RREF representatives of
(s+1) x (n+1) full-rank matrices over GF(q), giving each projective
s-dimensional subspace exactly once, in a fixed order (pivot columns in
lexicographic order, then free entries in ascending mixed-radix order).

Predicates: intersection lower bounds for codeword supports, existence
of subspaces avoiding a support, whether a zero set is a union of
hyperplanes, and dehomogenization onto a chart an avoiding hyperplane
defines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .codes import CodeParams, invert_matrix, nullspace, rref
from .errors import BudgetExceeded, DomainError
from .formulas import w1_prm
from .gfp import GF
from .points import point_index, projective_points, projective_size, standardize
from .poly import Poly

SUBSPACE_ENUM_CAP = 10**6


@dataclass(frozen=True)
class Subspace:
    """A projective linear subspace of P^n(GF(q)).

    ``forms`` are n - dim independent linear forms whose common zero
    locus the subspace is; ``point_indices`` index its points in the
    canonical enumeration; ``mask`` is the same set as a bitmask.
    """

    dim: int
    forms: tuple[tuple[int, ...], ...]
    point_indices: tuple[int, ...]
    mask: int


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional linear subspaces of GF(q)^m."""
    if r < 0 or r > m:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=None)
def _proj_points(n: int, q: int):
    pts = projective_points(n, GF(q))
    return pts, point_index(pts)


def _subspace_from_basis(basis: np.ndarray, n: int, gf: GF) -> Subspace:
    pts, index = _proj_points(n, gf.q)
    s_lin = basis.shape[0]  # linear dimension
    idxs = []
    for lead in range(s_lin):
        coeff = [0] * s_lin
        coeff[lead] = 1
        for tail in product(gf.elements(), repeat=s_lin - lead - 1):
            c = np.array(coeff[: lead + 1] + list(tail), dtype=np.int64)
            v = standardize(tuple(int(x) for x in (c @ basis) % gf.q), gf)
            idxs.append(index[v])
    idxs = tuple(sorted(idxs))
    forms = tuple(tuple(int(x) for x in row) for row in nullspace(basis, gf))
    mask = 0
    for i in idxs:
        mask |= 1 << i
    return Subspace(dim=s_lin - 1, forms=forms, point_indices=idxs, mask=mask)


@lru_cache(maxsize=None)
def _subspaces(n: int, q: int, s: int, cap: int) -> tuple[Subspace, ...]:
    gf = GF(q)
    count = gaussian_binomial(n + 1, s + 1, q)
    if count > cap:
        raise BudgetExceeded(
            f"enumerating dimension-{s} subspaces of P^{n}(GF({q})) "
            f"needs {count} subspaces, cap is {cap}"
        )
    rows_n = s + 1
    cols = n + 1
    out = []
    for pivots in combinations(range(cols), rows_n):
        free = [
            (i, c)
            for i in range(rows_n)
            for c in range(cols)
            if c > pivots[i] and c not in pivots
        ]
        for values in product(gf.elements(), repeat=len(free)):
            basis = np.zeros((rows_n, cols), dtype=np.int64)
            for i, p in enumerate(pivots):
                basis[i, p] = 1
            for (i, c), v in zip(free, values):
                basis[i, c] = v
            out.append(_subspace_from_basis(basis, n, gf))
    if len(out) != count:
        raise RuntimeError(f"expected {count} subspaces, built {len(out)}")
    return tuple(out)


def enumerate_subspaces(
    n: int, gf: GF, s: int, cap: int = SUBSPACE_ENUM_CAP
) -> list[Subspace]:
    """All projective dimension-s subspaces of P^n(GF(q)), each once."""
    if not 0 <= s <= n - 1:
        raise DomainError(f"subspace dimension s={s} outside [0, {n - 1}]")
    return list(_subspaces(n, gf.q, s, cap))


def subspace_from_forms(forms, n: int, gf: GF) -> Subspace:
    """The subspace cut out by the given linear forms (must be independent)."""
    fmat = np.array(forms, dtype=np.int64) % gf.q
    _, rank, _ = rref(fmat, gf)
    if rank != fmat.shape[0]:
        raise DomainError("defining forms are not linearly independent")
    basis = nullspace(fmat, gf)
    return _subspace_from_basis(basis, n, gf)


# -- support predicates -------------------------------------------------------


def projective_support(f: Poly, n: int, gf: GF) -> tuple[int, ...]:
    """Indices of the standard points of P^n where f does not vanish."""
    pts, _ = _proj_points(n, gf.q)
    if f.nvars != n + 1:
        raise DomainError(f"polynomial has {f.nvars} variables, expected {n + 1}")
    return tuple(i for i, p in enumerate(pts) if f.evaluate(p))


def _support_mask(support) -> int:
    mask = 0
    for i in support:
        mask |= 1 << int(i)
    return mask


def find_avoiding_subspace(
    support, n: int, gf: GF, r: int, cap: int = SUBSPACE_ENUM_CAP
) -> Subspace | None:
    """First dimension-r subspace (enumeration order) disjoint from the
    support, or None if every one meets it."""
    if not 0 <= r <= n - 1:
        raise DomainError(f"subspace dimension r={r} outside [0, {n - 1}]")
    smask = _support_mask(support)
    if smask == 0:
        raise DomainError("support is empty")
    for sub in _subspaces(n, gf.q, r, cap):
        if sub.mask & smask == 0:
            return sub
    return None


def find_avoiding_subspace_at_least(
    support, n: int, gf: GF, rmin: int, cap: int = SUBSPACE_ENUM_CAP
) -> Subspace | None:
    """Highest-dimensional avoiding subspace with dimension >= rmin."""
    for r in range(n - 1, rmin - 1, -1):
        sub = find_avoiding_subspace(support, n, gf, r, cap)
        if sub is not None:
            return sub
    return None


@dataclass(frozen=True)
class BoundViolation:
    s: int
    subspace: Subspace
    meet_size: int
    required: int


def check_subspace_bounds(
    support, params: CodeParams, dims=None, cap: int = SUBSPACE_ENUM_CAP
) -> list[BoundViolation]:
    """Verify the intersection lower bound on every linear subspace:
    a support either misses a subspace or meets it in at least the
    minimum weight of the projective code of that dimension.  Returns
    the violations (expected empty for true codeword supports)."""
    n, q, d = params.n, params.q, params.d
    if d < 2:
        raise DomainError(f"subspace bounds need d >= 2, got d={d}")
    smask = _support_mask(support)
    dims = range(1, n) if dims is None else dims
    violations = []
    for s in dims:
        if not 0 <= s <= n - 1:
            raise DomainError(f"subspace dimension s={s} outside [0, {n - 1}]")
        required = w1_prm(s, d, q)
        for sub in _subspaces(n, q, s, cap):
            meet = (sub.mask & smask).bit_count()
            if 0 < meet < required:
                violations.append(BoundViolation(s, sub, meet, required))
    return violations


# -- zero sets and hyperplane unions -------------------------------------------


@dataclass(frozen=True)
class HyperplaneCover:
    is_union: bool
    hyperplanes: tuple[Subspace, ...]
    uncovered: tuple[int, ...]


def zero_set_is_hyperplane_union(f: Poly, n: int, gf: GF) -> HyperplaneCover:
    """Whether the zero set of f equals the union of all hyperplanes it
    contains.  The certificate is that hyperplane list; on failure the
    uncovered zero points are reported."""
    support = projective_support(f, n, gf)
    if not support:
        raise DomainError("polynomial vanishes everywhere")
    smask = _support_mask(support)
    npts = projective_size(n, gf.q)
    zmask = ((1 << npts) - 1) ^ smask
    contained = tuple(
        h for h in _subspaces(n, gf.q, n - 1, SUBSPACE_ENUM_CAP) if h.mask & smask == 0
    )
    union = 0
    for h in contained:
        union |= h.mask
    uncovered = tuple(i for i in range(npts) if (zmask >> i) & 1 and not (union >> i) & 1)
    return HyperplaneCover(union == zmask, contained, uncovered)


# -- dehomogenization onto a chart ----------------------------------------------


def _complete_to_invertible(forms: np.ndarray, gf: GF) -> np.ndarray:
    """Extend the given independent rows to an invertible matrix by the
    first standard basis vectors that keep the rank growing."""
    m = forms.shape[1]
    rows = [row for row in forms]
    rank = forms.shape[0]
    for i in range(m):
        if rank == m:
            break
        e = np.zeros(m, dtype=np.int64)
        e[i] = 1
        cand = np.vstack(rows + [e])
        _, r, _ = rref(cand, gf)
        if r > rank:
            rows.append(e)
            rank = r
    return np.vstack(rows)


def _substitute_linear(f: Poly, a: np.ndarray) -> Poly:
    """f(A y): replace variable i by the linear form given by row i of A."""
    gf = f.gf
    nv = f.nvars
    lin = [
        Poly(gf, nv, {tuple(int(j == c) for c in range(nv)): int(a[i, j]) for j in range(nv)})
        for i in range(nv)
    ]
    total = Poly.zero(gf, nv)
    for exps, coeff in f.terms.items():
        term = Poly.constant(gf, nv, coeff)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * lin[i]
        total = total + term
    return total


def dehomogenize_on_chart(f: Poly, hyperplane: Subspace) -> Poly:
    """Affine polynomial of degree <= d-1, in n variables, whose affine
    weight equals |f|, obtained by moving the avoiding hyperplane to
    X0 = 0 and reading f off the opposite chart."""
    n, gf = f.nvars - 1, f.gf
    if not f.is_homogeneous():
        raise DomainError("chart reduction requires a homogeneous polynomial")
    if hyperplane.dim != n - 1 or len(hyperplane.forms) != 1:
        raise DomainError("chart requires a hyperplane (codimension 1)")
    support = projective_support(f, n, gf)
    smask = _support_mask(support)
    if smask & hyperplane.mask:
        raise DomainError("support of f meets the hyperplane; chart undefined")
    h = np.array([hyperplane.forms[0]], dtype=np.int64)
    r_mat = _complete_to_invertible(h, gf)
    a_mat = invert_matrix(r_mat, gf)
    moved = _substitute_linear(f, a_mat)
    # moved vanishes identically on X0 = 0, so the X0-free part vanishes
    # at every affine point and only terms divisible by X0 contribute on
    # the chart X0 = 1
    terms: dict[tuple[int, ...], int] = {}
    for exps, c in moved.terms.items():
        if exps[0] >= 1:
            rest = exps[1:]
            terms[rest] = terms.get(rest, 0) + c
    return Poly(gf, n, terms)
