"""Generator matrices for RM(n,d) and PRM(n,d) over GF(q).

A code is built by evaluating a deterministic monomial list at the
canonical point enumeration and row-reducing.  Every generator matrix is
uint8 residues from evaluation to serialization.  The whole evaluation
matrix (monomials x points) is refused from its size past
``ENTRY_CAP`` entries and otherwise computed in the log domain: one
exact float32 product of the exponents with the points' discrete logs,
then one antilog lookup.  ``_eliminate`` then visits its rows in
monomial order, keeps each row still nonzero when visited, and clears
that row's pivot column from every other row in one whole-matrix update.
The rows are stored per field size, as 64-bit words updated by XOR for
q = 2 and as uint8 residues for q > 2.  Dimension is always the numeric
rank of the evaluation matrix; no closed dimension formula is assumed
anywhere.  The vanishing-ideal quotients are realized as the row space
(image) and the kernel of that matrix.

GF(q) linear algebra lives here too: rref and nullspace are thin
wrappers around the same ``_eliminate``, on int64 arrays with mod-q
arithmetic.

Serialization: ``code_to_json`` renders the generator rows in one array
pass over the residues' digits, with the bytes ``json.dumps`` would
give; ``code_to_bitdump`` packs GF(2) rows into 64-bit words and
``bitdump_to_rows`` unpacks them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import BudgetExceeded, DomainError
from .gfp import F32_BLOCK, GF, reduce_mod, require_f32_exact
from .points import (
    ENTRY_CAP,
    POINT_ORDER_VERSION,
    affine_array,
    affine_size,
    projective_array,
    projective_size,
)
from .poly import Expvec

RM = "rm"
PRM = "prm"


@dataclass(frozen=True)
class CodeParams:
    """Code family and parameters.

    Construction accepts the full range the evaluation map makes sense
    on: RM for 0 <= d <= n(q-1), PRM for 1 <= d <= n(q-1)+1 (one past
    the range where the code fills the whole space).  Weight-formula
    operations restrict further.
    """

    family: str
    q: int
    n: int
    d: int

    def __post_init__(self):
        if self.family not in (RM, PRM):
            raise DomainError(f"unknown family {self.family!r}")
        GF(self.q)  # validates primality / support
        if self.n < 1:
            raise DomainError(f"n={self.n} must be >= 1")
        dmax = self.n * (self.q - 1)
        if self.family == RM and not 0 <= self.d <= dmax:
            raise DomainError(f"rm order d={self.d} outside [0, {dmax}]")
        if self.family == PRM and not 1 <= self.d <= dmax + 1:
            raise DomainError(f"prm order d={self.d} outside [1, {dmax + 1}]")


# -- linear algebra over GF(q) ----------------------------------------------


def _eliminate(mat: np.ndarray, q: int) -> tuple[np.ndarray, list[int], list[int]]:
    """Greedy Gauss-Jordan elimination of a matrix of residues mod q.

    Rows are visited in order.  A row still nonzero when visited becomes
    a pivot row: it is scaled to a leading 1, and its leftmost nonzero
    column is cleared from every other row, above and below, in one
    whole-matrix update.  A row that is zero when visited lies in the
    span of the rows kept before it and is dropped.

    Returns the kept rows sorted by pivot column (the unique RREF of the
    row space, uint8), their pivot columns in ascending order, and the
    indices of the kept rows in visiting order (the greedy subset).

    The rows are stored per field size: for q = 2 as little-endian 64-bit
    words (``pack_bits``) updated by XOR, for q > 2 as uint8 updated by
    ``(rows + (q - f) * pivot_row) mod q``, whose values before the
    reduction reach (q - 1) + (q - 1)^2 = q(q - 1), and reduced by
    ``reduce_mod``.  The update XORs (or adds) the pivot row into itself
    too, and then writes it back.
    """
    if q * (q - 1) > 255:
        raise DomainError(f"q={q}: row updates would overflow uint8")
    binary = q == 2
    rows = pack_bits(mat) if binary else mat.astype(np.uint8)
    kept: list[int] = []
    pivots: list[int] = []
    for i in range(rows.shape[0]):
        row = rows[i]
        # ndarray.nonzero, not np.flatnonzero: the wrapper's ravel and
        # dispatch cost more than scanning one row
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue
        # the pivot row is zero left of its pivot, so only the columns
        # from the pivot (its word, for q = 2) on change
        if binary:
            w = int(nz[0])
            word = int(row[w])
            low = word & -word
            c = 64 * w + low.bit_length() - 1
            pivot = row[w:].copy()
            rows[(rows[:, w] & low).nonzero()[0], w:] ^= pivot
            rows[i, w:] = pivot
        else:
            c = int(nz[0])
            pivot = reduce_mod(row[c:] * pow(int(row[c]), -1, q), q)
            hits = rows[:, c].nonzero()[0]
            rows[hits, c:] = reduce_mod(rows[hits, c:] + (q - rows[hits, c])[:, None] * pivot, q)
            rows[i, c:] = pivot
        kept.append(i)
        pivots.append(c)
    reduced = rows[[i for _, i in sorted(zip(pivots, kept))]]
    if binary:
        reduced = np.unpackbits(
            reduced.view(np.uint8), axis=1, count=mat.shape[1], bitorder="little"
        )
    return reduced, sorted(pivots), kept


def rref(mat: np.ndarray, gf: GF) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form over GF(q), leftmost-pivot convention.

    Returns (reduced matrix, rank, pivot columns), zero rows below the
    rank rows.  The input is not mutated; an empty matrix has rank 0.
    """
    m = np.array(mat, dtype=np.int64) % gf.q
    reduced, pivots, _ = _eliminate(m, gf.q)
    red = np.zeros_like(m)
    red[: len(pivots)] = reduced
    return red, len(pivots), pivots


def nullspace(mat: np.ndarray, gf: GF) -> np.ndarray:
    """Basis of the right kernel of ``mat`` over GF(q), one row per vector:
    one per non-pivot column, 1 there and minus the reduced matrix's
    entries of that column at the pivot columns."""
    m = np.array(mat, dtype=np.int64) % gf.q
    if m.size == 0:
        cols = m.shape[1] if m.ndim == 2 else 0
        return np.eye(cols, dtype=np.int64)
    red, rank, pivots = rref(m, gf)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red[:rank, free]).T % gf.q
    return basis


# -- monomial bases ----------------------------------------------------------


def rm_monomials(n: int, d: int, q: int) -> list[Expvec]:
    """Exponent vectors with every exponent <= q-1 and total degree <= d,
    in graded lexicographic order (reduced basis modulo the affine
    vanishing ideal)."""
    # by_degree[t]: the vectors over the last j variables of degree t,
    # ascending lexicographic, grown one leading variable at a time
    by_degree: list[list[Expvec]] = [[()]] + [[] for _ in range(d)]
    for _ in range(n):
        by_degree = [
            [(e,) + rest for e in range(min(t, q - 1) + 1) for rest in by_degree[t - e]]
            for t in range(d + 1)
        ]
    return [e for vectors in by_degree for e in vectors]


def homogeneous_monomials(nvars: int, d: int) -> list[Expvec]:
    """All exponent vectors of total degree exactly d, lexicographic."""
    out = []
    for picks in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in picks:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


# -- code construction --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Code:
    """A linear evaluation code with a row-reduced generator matrix.

    Column j of ``gen`` is the evaluation at point j of the canonical
    enumeration (``affine_points`` for RM, ``projective_points`` for
    PRM).  ``basis_monomials`` are the monomials (in generation order)
    whose evaluation rows were kept as a basis; ``gen`` is the RREF of
    those rows, uint8 residues, so it has full row rank.
    """

    params: CodeParams
    gen: np.ndarray
    basis_monomials: tuple[Expvec, ...]

    @property
    def length(self) -> int:
        return self.gen.shape[1]

    @property
    def dimension(self) -> int:
        return self.gen.shape[0]

    @property
    def gf(self) -> GF:
        return GF(self.params.q)

    def __repr__(self) -> str:
        p = self.params
        return (
            f"Code({p.family}(n={p.n}, d={p.d}) over GF({p.q}), "
            f"[{self.length}, {self.dimension}])"
        )


def evaluate_monomials(exps: list[Expvec], pts: np.ndarray, q: int) -> np.ndarray:
    """Row i is the monomial ``exps[i]`` evaluated at every point, mod q,
    as uint8.

    In the log domain: with g a primitive root, x^e = g^(e log x) for
    x != 0.  Exponents e >= 1 become (e - 1) mod (q - 1) + 1, equal as
    powers on GF(q), so e <= q - 1.  A zero coordinate gets the log
    ``zero``, larger than any sum e . log(x) over nonzero coordinates, so
    one exact float32 product of the exponents with the points' logs gives
    each entry's power of g, or a sum >= ``zero`` where a variable of the
    monomial vanishes; one antilog table maps that sum to the value.  The
    product runs ``F32_BLOCK`` entries at a time."""
    nvars = pts.shape[1]
    e = np.array([[k and (k - 1) % (q - 1) + 1 for k in m] for m in exps], dtype=np.float32)
    e = e.reshape(len(exps), nvars)
    g = next(g for g in range(1, q) if len({pow(g, k, q) for k in range(q - 1)}) == q - 1)
    powers = [pow(g, k, q) for k in range(q - 1)]
    zero = nvars * (q - 1) * (q - 2) + 1
    require_f32_exact(nvars * (q - 1) * zero, "monomial evaluation")
    log = np.empty(q, dtype=np.float32)
    log[0] = zero
    log[powers] = range(q - 1)
    logs = log[pts].T.copy()
    antilog = np.zeros(nvars * (q - 1) * zero + 1, dtype=np.uint8)
    antilog[:zero] = np.resize(powers, zero)
    out = np.empty((len(exps), len(pts)), dtype=np.uint8)
    step = max(1, F32_BLOCK // max(1, len(pts)))
    for i in range(0, len(exps), step):
        sums = e[i : i + step] @ logs
        if q == 2:
            # antilog is 1 at 0 and 0 past it; a compare skips the gather
            np.equal(sums, 0, out=out[i : i + step].view(bool))
        else:
            np.take(antilog, sums.astype(np.intp), out=out[i : i + step])
    return out


def _build(params: CodeParams, monomials: list[Expvec]) -> Code:
    n, q = params.n, params.q
    rm = params.family == RM
    # the evaluation matrix is monomials x points: refuse it before any
    # point is listed
    entries = len(monomials) * (affine_size(n, q) if rm else projective_size(n, q))
    if entries > ENTRY_CAP:
        raise BudgetExceeded(
            f"the evaluation matrix of {params.family}(n={n}, d={params.d}) over GF({q}) "
            f"needs {entries} entries, cap is {ENTRY_CAP}"
        )
    points = (affine_array if rm else projective_array)(n, q)
    # greedy: keep the monomials whose rows grow the rank, so
    # basis_monomials is an actual monomial subset
    evaluated = evaluate_monomials(monomials, points, q)
    gen, _, kept = _eliminate(evaluated, q)
    return Code(params, gen, tuple(monomials[i] for i in kept))


def build_rm(params: CodeParams) -> Code:
    """RM(n, d): evaluate the reduced monomial basis at all affine points."""
    if params.family != RM:
        raise DomainError(f"expected family {RM!r}, got {params.family!r}")
    monomials = rm_monomials(params.n, params.d, params.q)
    code = _build(params, monomials)
    # evaluation on the reduced monomial basis is injective; check it
    if code.dimension != len(monomials):
        raise RuntimeError(
            f"reduced monomial basis not independent: {code.dimension} != {len(monomials)}"
        )
    return code


def build_prm(params: CodeParams) -> Code:
    """PRM(n, d): evaluate all degree-d monomials in n+1 variables at the
    standard projective points.  The kernel of the evaluation matrix is
    the degree-d slice of the projective vanishing ideal, so the rank
    computes the quotient dimension."""
    if params.family != PRM:
        raise DomainError(f"expected family {PRM!r}, got {params.family!r}")
    monomials = homogeneous_monomials(params.n + 1, params.d)
    return _build(params, monomials)


def build(params: CodeParams) -> Code:
    return build_rm(params) if params.family == RM else build_prm(params)


# -- serialization ------------------------------------------------------------


def code_to_json(code: Code) -> str:
    """Generator matrix as JSON, rows as residue arrays.

    The bytes are those of ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))``.  ``rows`` sorts last, so it is rendered
    after the other fields in one byte buffer, decoded once: every cell
    becomes the 2 bytes ``b"%d,"`` of its residue (one addition over the
    whole matrix writes them as 2-byte words), each row opens with the
    2 bytes ``b",["`` (``b"[["`` for the first), its last comma becomes
    ``]``, and ``]}`` closes the matrix and the object.  Where residues
    have two digits (q > 10) the cells are the 3 bytes ``b"%2d,"``, the
    row openings ``b" ,["`` and ``b" [["``, and the pad spaces are removed
    at the end.
    """
    p = code.params
    doc = {
        "family": p.family,
        "q": p.q,
        "n": p.n,
        "d": p.d,
        "length": code.length,
        "dimension": code.dimension,
        "point_order": POINT_ORDER_VERSION,
        "basis_monomials": [list(e) for e in code.basis_monomials],
    }
    head = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    gen = code.gen.astype(np.uint8, copy=False)  # a Code may be given other integer rows
    return _with_rows_json(head[:-1] + ',"rows":', gen, p.q)


def _with_rows_json(head: str, gen: np.ndarray, q: int) -> str:
    """``head + json.dumps(gen.tolist(), separators=(",", ":")) + "}"``
    for an ASCII ``head`` and a uint8 matrix with at least one row and one
    column and residues below 13."""
    width = 2 if q <= 10 else 3
    rows, length = gen.shape
    start = len(head)
    buf = np.empty(start + rows * (length + 1) * width + 2, dtype=np.uint8)
    buf[:start] = np.frombuffer(head.encode("ascii"), dtype=np.uint8)
    text = buf[start:-2].reshape(rows, length + 1, width)
    text[:, 0] = np.frombuffer(b",[".rjust(width), dtype=np.uint8)
    text[0, 0, -2] = ord("[")
    cells = text[:, 1:]
    if width == 2:
        # a cell is one little-endian 2-byte word: the digit, then the comma
        np.add(gen, ord("0") | ord(",") << 8, out=cells.view("<u2")[..., 0], dtype="<u2")
    else:
        # the tens digit is 1 or, padded, a space
        tens = gen // 10
        np.multiply(tens, ord("1") - ord(" "), out=cells[..., 0])
        cells[..., 0] += ord(" ")
        np.add(gen - 10 * tens, ord("0"), out=cells[..., 1])
        cells[..., 2] = ord(",")
    text[:, -1, -1] = ord("]")
    buf[-2:] = np.frombuffer(b"]}", dtype=np.uint8)
    if width == 3:
        return head + buf[start:].tobytes().replace(b" ", b"").decode("ascii")
    return str(buf.data, "ascii")


_BITDUMP_MAGIC = "prmw-bits1"


def pack_bits(gen: np.ndarray) -> np.ndarray:
    """Each 0/1 row as ceil(length/64) little-endian 64-bit words, bit j
    of word w holding column 64w + j; the rest of the last word is 0."""
    rows, length = gen.shape
    packed = np.zeros((rows, 8 * ((length + 63) // 64)), dtype=np.uint8)
    packed[:, : (length + 7) // 8] = np.packbits(gen, axis=1, bitorder="little")
    return packed.view("<u8")


def code_to_bitdump(code: Code) -> bytes:
    """Raw GF(2) bit-matrix dump: ASCII header line, then row-major
    little-endian 64-bit words, ceil(length/64) words per row."""
    if code.params.q != 2:
        raise DomainError("bit-matrix dump is defined for q=2 only")
    header = (
        f"{_BITDUMP_MAGIC} point-order={POINT_ORDER_VERSION} "
        f"rows={code.dimension} cols={code.length}\n"
    )
    return header.encode("ascii") + pack_bits(code.gen).tobytes()


def bitdump_to_rows(blob: bytes) -> tuple[dict, list[list[int]]]:
    """Parse a bit-matrix dump back into header fields and 0/1 rows."""
    nl = blob.index(b"\n")
    fields = blob[:nl].decode("ascii").split()
    if fields[0] != _BITDUMP_MAGIC:
        raise DomainError(f"bad bitdump magic {fields[0]!r}")
    meta = dict(f.split("=", 1) for f in fields[1:])
    rows_n, cols = int(meta["rows"]), int(meta["cols"])
    words_per_row = (cols + 63) // 64
    body = blob[nl + 1 :]
    if len(body) != rows_n * words_per_row * 8:
        raise DomainError("bitdump body has wrong size")
    words = np.frombuffer(body, dtype=np.uint8).reshape(rows_n, words_per_row * 8)
    bits = np.unpackbits(words, axis=1, count=cols, bitorder="little")
    return meta, bits.tolist()
