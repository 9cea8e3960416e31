"""Projective linear subspaces and geometric predicates on supports.

Subspaces are enumerated as canonical RREF representatives of
(s+1) x (n+1) full-rank matrices over GF(q), giving each projective
s-dimensional subspace exactly once, in a fixed order (pivot columns in
lexicographic order, then free entries in ascending mixed-radix order).
Each (n, q, s) caches two read-only arrays, the subspaces' defining
forms and one boolean incidence matrix, subspaces x points, computed
from the forms' values at the points; it is the only point-set
representation.
``Subspace`` objects are built only for the subspaces a result returns,
one per distinct subspace.

The support predicates take a batch of supports (a boolean supports x
points matrix, or an iterable of point index sequences; one support is
a one-element batch) and read every meet size from the supports x
points @ points x subspaces product per dimension, a block of supports
at a time: intersection lower bounds for codeword supports,
and the first subspace avoiding each support, kept as index arrays
until the result is returned.  Whether a zero set is a union of
hyperplanes reads the same incidences.  A form is evaluated at all
points at once by the codes' monomial evaluator.  Form values and meet
sizes are exact float32 products by ``gfp.f32_products``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from typing import NamedTuple

import numpy as np

from .codes import CodeParams, evaluate_monomials, nullspace, rref
from .errors import BudgetExceeded, DomainError
from .formulas import w1_prm
from .gfp import GF, f32_products
from .points import ENTRY_CAP, projective_array, projective_size
from .poly import Poly


class Subspace(NamedTuple):
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
    pts = projective_array(n, q)
    pts.flags.writeable = False  # cached: every caller shares it
    return pts


def _incidence(forms: np.ndarray, n: int, q: int) -> np.ndarray:
    """Which points lie on the subspaces: all forms vanish there.  forms
    is (..., forms, n+1); the result is (..., points), boolean.  The form
    values, at most (n+1)(q-1)^2, come from ``f32_products`` a block of
    subspaces at a time, and a value vanishes mod q where it equals its
    ``// q * q``."""
    bound = (n + 1) * (q - 1) ** 2
    pts = _proj_points(n, q).T
    flat = forms.reshape(-1, *forms.shape[-2:])
    out = np.empty((len(flat), pts.shape[1]), dtype=bool)
    for i, values in f32_products(flat, pts, bound, "form values"):
        values = values.astype(np.min_scalar_type(bound))
        (values == values // q * q).all(axis=1, out=out[i : i + len(values)])
    return out.reshape(*forms.shape[:-2], -1)


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
    entries = count * (n - s) * projective_size(n, q)
    if entries > ENTRY_CAP:
        raise BudgetExceeded(
            f"the incidence of dimension-{s} subspaces of P^{n}(GF({q})) "
            f"needs {entries} entries, cap is {ENTRY_CAP}"
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


def _evaluate(f: Poly, pts: np.ndarray) -> np.ndarray:
    """f at every row of ``pts``, mod q."""
    coeffs = np.array(list(f.terms.values()), dtype=np.int64)
    return coeffs @ evaluate_monomials(list(f.terms), pts, f.gf.q) % f.gf.q


def projective_support(f: Poly, n: int, gf: GF) -> tuple[int, ...]:
    """Indices of the standard points of P^n where f does not vanish."""
    if f.nvars != n + 1:
        raise DomainError(f"polynomial has {f.nvars} variables, expected {n + 1}")
    return tuple(np.flatnonzero(_evaluate(f, _proj_points(n, gf.q))).tolist())


def _support_rows(supports, n: int, q: int) -> np.ndarray:
    """One boolean row per support over the points of P^n.  A boolean
    matrix is taken as these rows; index sequences are placed in them."""
    npts = projective_size(n, q)
    if isinstance(supports, np.ndarray) and supports.dtype == bool:
        if supports.ndim != 2 or supports.shape[1] != npts:
            raise DomainError(f"support matrix {supports.shape} is not rows of {npts} points")
        return supports
    supports = [tuple(sup) for sup in supports]
    if any(isinstance(sup[0], (bool, np.bool_)) for sup in supports if sup):
        raise DomainError("boolean supports are given as one matrix, not row by row")
    lengths = [len(sup) for sup in supports]
    cols = np.fromiter(chain.from_iterable(supports), dtype=np.int64, count=sum(lengths))
    if cols.size and not 0 <= cols.min() <= cols.max() < npts:
        raise DomainError(f"support index outside [0, {npts - 1}]")
    rows = np.zeros((len(supports), npts), dtype=bool)
    rows[np.repeat(np.arange(len(supports)), lengths), cols] = True
    return rows


def _first_avoiders(rows: np.ndarray, n: int, q: int, r: int) -> np.ndarray:
    """For each support, the index of the first dimension-r subspace
    (enumeration order) it misses, or -1 if it meets every one."""
    if not 0 <= r <= n - 1:
        raise DomainError(f"subspace dimension r={r} outside [0, {n - 1}]")
    if not rows.any(axis=1).all():
        raise DomainError("support is empty")
    _, inc = _subspaces(n, q, r)
    first = np.empty(len(rows), dtype=np.intp)
    for start, meets in f32_products(rows, inc.T, rows.shape[1], "meet sizes"):
        # the first smallest meet; a miss where that meet is 0
        j = meets.argmin(axis=1)
        missed = np.take_along_axis(meets, j[:, None], axis=1)[:, 0] == 0
        first[start : start + len(j)] = np.where(missed, j, -1)
    return first


def _subspace_objects(first: np.ndarray, n: int, q: int, r: int) -> np.ndarray:
    """``first`` (subspace indices, -1 for none) as an object array of
    dimension-r ``Subspace`` objects and None, one object per distinct
    index."""
    forms, inc = _subspaces(n, q, r)
    objects = np.full(len(inc) + 1, None, dtype=object)
    for j in np.flatnonzero(np.bincount(first + 1, minlength=len(inc) + 1)[1:]).tolist():
        objects[j + 1] = _subspace(forms[j], inc[j])
    return objects[first + 1]


def find_avoiding_subspace(supports, n: int, gf: GF, r: int) -> list[Subspace | None]:
    """For each support of the batch, the first dimension-r subspace
    (enumeration order) disjoint from it, or None if every one meets it."""
    first = _first_avoiders(_support_rows(supports, n, gf.q), n, gf.q, r)
    return _subspace_objects(first, n, gf.q, r).tolist()


def find_avoiding_subspace_at_least(supports, n: int, gf: GF, rmin: int) -> list[Subspace | None]:
    """For each support of the batch, the first avoiding subspace of the
    highest dimension >= rmin that has one, or None."""
    rows = _support_rows(supports, n, gf.q)
    found = np.full(len(rows), None, dtype=object)
    pending = np.arange(len(rows))
    for r in range(n - 1, rmin - 1, -1):
        if not pending.size:
            break
        first = _first_avoiders(rows[pending], n, gf.q, r)
        hit = first >= 0
        found[pending[hit]] = _subspace_objects(first[hit], n, gf.q, r)
        pending = pending[~hit]
    return found.tolist()


class BoundViolation(NamedTuple):
    row: int
    s: int
    subspace: Subspace
    meet_size: int
    required: int


def check_subspace_bounds(supports, params: CodeParams) -> list[BoundViolation]:
    """Verify the intersection lower bound on every linear subspace:
    a support either misses a subspace or meets it in at least the
    minimum weight of the projective code of that dimension.  Returns
    the violations of the whole batch (expected empty for true codeword
    supports), ordered by ``row``, the support's place in the batch,
    then by dimension and enumeration order.  A dimension whose bound is
    at most 1 cannot be violated and takes no product."""
    n, q, d = params.n, params.q, params.d
    if d < 2:
        raise DomainError(f"subspace bounds need d >= 2, got d={d}")
    rows = _support_rows(supports, n, q)
    violations = []
    for s in range(1, n):
        required = w1_prm(s, d, q)
        forms, inc = _subspaces(n, q, s)  # before the skip: a budget refusal stands
        if required <= 1:
            continue  # meets are integers: none lies strictly between 0 and 1
        for start, meets in f32_products(rows, inc.T, rows.shape[1], "meet sizes"):
            flat = np.flatnonzero((meets > 0) & (meets < required))
            sizes = meets.ravel()[flat].astype(np.int64).tolist()
            hit, sub = divmod(flat, len(inc))
            violations += [
                BoundViolation(start + i, s, _subspace(forms[j], inc[j]), m, required)
                for i, j, m in zip(hit.tolist(), sub.tolist(), sizes)
            ]
    violations.sort(key=lambda v: v.row)
    return violations


# -- zero sets and hyperplane unions -------------------------------------------


class HyperplaneCover(NamedTuple):
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

