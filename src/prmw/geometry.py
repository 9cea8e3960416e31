"""Projective linear subspaces and geometric predicates on supports.

Subspaces are enumerated as canonical RREF representatives of
(s+1) x (n+1) full-rank matrices over GF(q), giving each projective
s-dimensional subspace exactly once, in a fixed order (pivot columns in
lexicographic order, then free entries in ascending mixed-radix order).
Each (n, q, s) caches two read-only arrays, the subspaces' defining
forms and one boolean incidence matrix, subspaces x points, computed
from the forms in one product; it is the only point-set representation.
``Subspace`` objects are built only for the subspaces a result returns.

The support predicates take a batch of supports (a boolean supports x
points matrix, or an iterable of point index sequences; one support is
a one-element batch) and read every meet size from one supports x
points @ points x subspaces product per dimension: intersection lower
bounds for codeword supports, and the first subspace avoiding each
support.  Whether a zero set is a union of hyperplanes and the
dehomogenization onto a chart an avoiding hyperplane defines read the
same incidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from .codes import CodeParams, _eliminate, invert_matrix, nullspace, rref
from .errors import BudgetExceeded, DomainError
from .formulas import w1_prm
from .gfp import GF
from .points import projective_points, projective_size
from .poly import Poly

SUBSPACE_ENUM_CAP = 10**6


@dataclass(frozen=True)
class Subspace:
    """A projective linear subspace of P^n(GF(q)).

    ``forms`` are n - dim independent linear forms whose common zero
    locus the subspace is; ``point_indices`` index its points in the
    canonical enumeration, ascending.
    """

    dim: int
    forms: tuple[tuple[int, ...], ...]
    point_indices: tuple[int, ...]


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
def _proj_points(n: int, q: int) -> np.ndarray:
    return np.array(projective_points(n, GF(q)), dtype=np.int64)


def _incidence(forms: np.ndarray, n: int, q: int) -> np.ndarray:
    """Which points lie on the subspaces: all forms vanish there.  forms
    is (..., forms, n+1); the result is (..., points), boolean."""
    return ((forms @ _proj_points(n, q).T) % q == 0).all(axis=-2)


def _subspace(forms: np.ndarray, incidence: np.ndarray) -> Subspace:
    return Subspace(
        dim=forms.shape[1] - 1 - forms.shape[0],
        forms=tuple(map(tuple, forms.tolist())),
        point_indices=tuple(np.flatnonzero(incidence).tolist()),
    )


@lru_cache(maxsize=None)
def _subspaces(n: int, q: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The forms (subspaces x forms x n+1) of the dimension-s subspaces
    in enumeration order and their incidence matrix, row i holding the
    points of subspace i; ``_subspace(forms[i], inc[i])`` is subspace i."""
    count = gaussian_binomial(n + 1, s + 1, q)
    if count > SUBSPACE_ENUM_CAP:
        raise BudgetExceeded(
            f"enumerating dimension-{s} subspaces of P^{n}(GF({q})) "
            f"needs {count} subspaces, cap is {SUBSPACE_ENUM_CAP}"
        )
    rows_n = s + 1
    cols = n + 1
    blocks = []
    for pivots in combinations(range(cols), rows_n):
        free = [
            (i, c)
            for i in range(rows_n)
            for c in range(cols)
            if c > pivots[i] and c not in pivots
        ]
        values = np.array(list(product(range(q), repeat=len(free))), dtype=np.int64)
        # the kernel of an RREF basis, as nullspace() gives it: one form
        # per non-pivot column fc, 1 at fc and -basis[r, fc] at pivot r
        fcols = [c for c in range(cols) if c not in pivots]
        forms = np.zeros((q ** len(free), len(fcols), cols), dtype=np.int64)
        for a, fc in enumerate(fcols):
            forms[:, a, fc] = 1
        for k, (i, c) in enumerate(free):
            forms[:, fcols.index(c), pivots[i]] = (-values[:, k]) % q
        blocks.append(forms)
    forms = np.concatenate(blocks)
    if len(forms) != count:
        raise RuntimeError(f"expected {count} subspaces, built {len(forms)}")
    inc = _incidence(forms, n, q)
    forms.flags.writeable = inc.flags.writeable = False  # cached: every caller shares them
    return forms, inc


def enumerate_subspaces(n: int, gf: GF, s: int) -> list[Subspace]:
    """All projective dimension-s subspaces of P^n(GF(q)), each once."""
    if not 0 <= s <= n - 1:
        raise DomainError(f"subspace dimension s={s} outside [0, {n - 1}]")
    return list(map(_subspace, *_subspaces(n, gf.q, s)))


def subspace_from_forms(forms, n: int, gf: GF) -> Subspace:
    """The subspace cut out by the given linear forms (must be independent)."""
    fmat = np.array(forms, dtype=np.int64) % gf.q
    _, rank, _ = rref(fmat, gf)
    if rank != fmat.shape[0]:
        raise DomainError("defining forms are not linearly independent")
    canonical = nullspace(nullspace(fmat, gf), gf)
    return _subspace(canonical, _incidence(canonical, n, gf.q))


# -- support predicates -------------------------------------------------------


def projective_support(f: Poly, n: int, gf: GF) -> tuple[int, ...]:
    """Indices of the standard points of P^n where f does not vanish."""
    if f.nvars != n + 1:
        raise DomainError(f"polynomial has {f.nvars} variables, expected {n + 1}")
    return tuple(i for i, p in enumerate(_proj_points(n, gf.q).tolist()) if f.evaluate(p))


def _support_rows(supports, n: int, q: int) -> np.ndarray:
    """One 0/1 row per support over the points of P^n, as float32: meet
    sizes are at most N <= POINT_ENUM_CAP = 2^24, which float32 holds
    exactly, and its matrix product is the fast one.  A boolean matrix
    is taken as these rows; index sequences are placed in them."""
    npts = projective_size(n, q)
    if isinstance(supports, np.ndarray) and supports.dtype == bool:
        if supports.ndim != 2 or supports.shape[1] != npts:
            raise DomainError(f"support matrix {supports.shape} is not rows of {npts} points")
        return supports.astype(np.float32)
    supports = [tuple(sup) for sup in supports]
    if any(isinstance(sup[0], (bool, np.bool_)) for sup in supports if sup):
        raise DomainError("boolean supports are given as one matrix, not row by row")
    lengths = [len(sup) for sup in supports]
    cols = np.fromiter(chain.from_iterable(supports), dtype=np.int64, count=sum(lengths))
    if cols.size and not 0 <= cols.min() <= cols.max() < npts:
        raise DomainError(f"support index outside [0, {npts - 1}]")
    rows = np.zeros((len(supports), npts), dtype=np.float32)
    rows[np.repeat(np.arange(len(supports)), lengths), cols] = 1
    return rows


def _meets(rows: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """meets[i, j] = |support i & subspace j|."""
    return rows @ inc.T.astype(np.float32)


def _first_avoiders(rows: np.ndarray, n: int, q: int, r: int) -> list[Subspace | None]:
    if not 0 <= r <= n - 1:
        raise DomainError(f"subspace dimension r={r} outside [0, {n - 1}]")
    if not rows.any(axis=1).all():
        raise DomainError("support is empty")
    forms, inc = _subspaces(n, q, r)
    avoids = _meets(rows, inc) == 0
    first = np.where(avoids.any(axis=1), avoids.argmax(axis=1), -1).tolist()
    # one object per distinct avoider; -1 (none) maps to None
    subs = {j: _subspace(forms[j], inc[j]) for j in set(first) if j >= 0}
    return [subs.get(j) for j in first]


def find_avoiding_subspace(supports, n: int, gf: GF, r: int) -> list[Subspace | None]:
    """For each support of the batch, the first dimension-r subspace
    (enumeration order) disjoint from it, or None if every one meets it."""
    return _first_avoiders(_support_rows(supports, n, gf.q), n, gf.q, r)


def find_avoiding_subspace_at_least(supports, n: int, gf: GF, rmin: int) -> list[Subspace | None]:
    """For each support of the batch, the first avoiding subspace of the
    highest dimension >= rmin that has one, or None."""
    rows = _support_rows(supports, n, gf.q)
    found: list[Subspace | None] = [None] * len(rows)
    pending = np.arange(len(rows))
    for r in range(n - 1, rmin - 1, -1):
        if not pending.size:
            break
        hits = _first_avoiders(rows[pending], n, gf.q, r)
        for i, sub in zip(pending.tolist(), hits):
            found[i] = sub
        pending = pending[[sub is None for sub in hits]]
    return found


@dataclass(frozen=True)
class BoundViolation:
    row: int
    s: int
    subspace: Subspace
    meet_size: int
    required: int


def check_subspace_bounds(supports, params: CodeParams, dims=None) -> list[BoundViolation]:
    """Verify the intersection lower bound on every linear subspace:
    a support either misses a subspace or meets it in at least the
    minimum weight of the projective code of that dimension.  Returns
    the violations of the whole batch (expected empty for true codeword
    supports), ordered by ``row``, the support's place in the batch,
    then by dimension and enumeration order."""
    n, q, d = params.n, params.q, params.d
    if d < 2:
        raise DomainError(f"subspace bounds need d >= 2, got d={d}")
    dims = list(range(1, n) if dims is None else dims)
    for s in dims:
        if not 0 <= s <= n - 1:
            raise DomainError(f"subspace dimension s={s} outside [0, {n - 1}]")
    rows = _support_rows(supports, n, q)
    violations = []
    for s in dims:
        required = w1_prm(s, d, q)
        forms, inc = _subspaces(n, q, s)
        meets = _meets(rows, inc)
        flat = np.flatnonzero((meets > 0) & (meets < required))
        sizes = meets.ravel()[flat].astype(np.int64).tolist()
        # one meet matrix at a time: it is supports x subspaces
        del meets
        hit, sub = divmod(flat, len(inc))
        violations += [
            BoundViolation(i, s, _subspace(forms[j], inc[j]), m, required)
            for i, j, m in zip(hit.tolist(), sub.tolist(), sizes)
        ]
    violations.sort(key=lambda v: v.row)
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
    support = list(projective_support(f, n, gf))
    if not support:
        raise DomainError("polynomial vanishes everywhere")
    forms, inc = _subspaces(n, gf.q, n - 1)
    contained = ~inc[:, support].any(axis=1)
    covered = inc[contained].any(axis=0)
    covered[support] = True
    uncovered = tuple(np.flatnonzero(~covered).tolist())
    hyperplanes = tuple(_subspace(forms[j], inc[j]) for j in np.flatnonzero(contained))
    return HyperplaneCover(not uncovered, hyperplanes, uncovered)


# -- dehomogenization onto a chart ----------------------------------------------


def _complete_to_invertible(forms: np.ndarray, gf: GF) -> np.ndarray:
    """Extend the given independent rows to an invertible matrix by the
    first standard basis vectors that keep the rank growing."""
    m = forms.shape[1]
    cand = np.vstack([forms % gf.q, np.eye(m, dtype=np.int64)])
    _, _, kept = _eliminate(cand, gf.q)
    if kept[: len(forms)] != list(range(len(forms))):
        raise DomainError("forms are not linearly independent")
    return cand[kept]


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
    if not set(hyperplane.point_indices).isdisjoint(projective_support(f, n, gf)):
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
