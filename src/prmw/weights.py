"""Exhaustive weight enumeration over the row space of a code.

Produces the exact full weight distribution, the minimum and
next-to-minimal weights, and witness codewords.

The counting pass enumerates whichever of the code and its dual has
the strictly smaller dimension.  For a code of length N and dimension
k with N - k < k, the dual generator is the kernel of the generator
matrix; its distribution B is counted and the code's distribution is
recovered exactly by the MacWilliams identity

    A_j = q^-(N-k) * sum_i B_i * K_j(i; N, q)

in Python integers, with K_j the Krawtchouk polynomials
(MacWilliams-Sloane, The Theory of Error-Correcting Codes, ch. 5).
Otherwise, the tie N - k = k included, the code itself is counted.
The report's ``side`` ("primal" or "dual") names the side counted and
``codewords_scanned`` is what that counting pass visited.  Near
k = N/2 nothing is gained, e.g. PRM(2,3)/GF(5) (k = 10, N = 31) and
PRM(3,3)/GF(3) (k = 20, N = 40), timed with the q > 2 kernel below.
The budget caps the code's own q^k whichever side is counted, since
the witness pass searches the code.

q = 2: a doubling table holds the packed codewords of all messages over
the low b = min(k, 20) message bits; each block of 2^b messages is that
table XOR-ed with the codeword of the block's high bits, popcounted with
numpy.  Blocks can be split into contiguous ranges across threads;
partial counts merge by addition, so results do not depend on the
partition schedule.

q > 2: exactly one codeword per scalar class is enumerated (messages
whose lowest nonzero digit is 1) and nonzero counts are multiplied by
q - 1.  For lead L those are q^L + q^(L+1)*r for r ascending, with
codeword g_L + r*G[L+1:].  A uint8 table T holds the codewords of the
low b digits of r (built by q-ary doubling, at most 4 MB), and each
block of q^b consecutive r adds the codeword ``base`` of the lead and
the high digits of r.  A coordinate of T[s] + base is zero exactly
where T[s] equals -base mod q, so a block's weights are one byte
comparison per coordinate: no reduction mod q and no matrix product.
On a 2-vCPU VM PRM(2,3)/GF(5) (2,441,407 classes) counts in about
0.07 s and PRM(3,3)/GF(3) (1.74e9 classes) in about 18 s.

Witnesses are canonical: the up-to-K codewords of each extreme weight
whose message integers are smallest (message value sum_i m_i * q^i).
They always come from the code itself, searched in ascending message
order so the search stops once every extreme weight has K.

Supports are collected a batch at a time: ``codeword_support`` takes a
matrix of messages, one per row, and returns one support per row from
a single product with the generator.  A report makes one such call for
all its witnesses, and ``verify`` one for every nonzero message of an
exhaustive instance.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .codes import Code, nullspace, pack_bits
from .errors import BudgetExceeded, DomainError

DEFAULT_BUDGET = 1 << 32
WITNESS_CAP = 3

# q = 2: message bits per block of the doubling table (2^20 packed codewords)
_BLOCK_BITS = 20
# q > 2: byte size cap of the low-digit table
_TABLE_BYTES = 1 << 22


@dataclass(frozen=True)
class Witness:
    message: tuple[int, ...]
    support: tuple[int, ...]


@dataclass
class WeightReport:
    params: object
    length: int
    dimension: int
    side: str  # "primal" or "dual": the code whose codewords were counted
    codewords_scanned: int
    min_weight: int
    next_weight: int | None
    weight_counts: dict[int, int]
    witnesses: list[Witness]
    elapsed_ms: int


def codeword_support(code: Code, messages) -> list[tuple[int, ...]]:
    """Indices (canonical point order) where each codeword is nonzero.

    ``messages`` is a batch, one message per row (a single message is a
    1-element batch); the result has one ascending support tuple per
    row, in row order.  The whole batch is one ``(msgs @ gen) % q``
    product and one ``np.nonzero``, whose column indices are split into
    the rows' tuples.
    """
    msgs = np.asarray(messages, dtype=np.int64)
    if msgs.ndim != 2 or msgs.shape[1] != code.dimension:
        raise DomainError(
            f"messages of shape {msgs.shape} are not rows of length {code.dimension}"
        )
    nonzero = (msgs @ code.gen) % code.params.q != 0
    ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
    cols = np.nonzero(nonzero)[1].tolist()
    return [tuple(cols[a:b]) for a, b in zip([0] + ends, ends)]


def weight_report(code: Code, budget: int | None = None, threads: int = 1) -> WeightReport:
    """Exact weight distribution with extreme-weight witnesses."""
    budget = DEFAULT_BUDGET if budget is None else budget
    q = code.params.q
    dim = code.dimension
    total = q**dim
    if total > budget:
        raise BudgetExceeded(
            f"{code.params.family}(n={code.params.n}, d={code.params.d}) over GF({q}) "
            f"has q^dimension = {q}^{dim} = {total} codewords; needs budget {total}, "
            f"budget is {budget}"
        )
    t0 = time.perf_counter()
    length = code.length
    if length - dim < dim:
        side, gen = "dual", nullspace(code.gen, code.gf)
    else:
        side, gen = "primal", code.gen
    counts, scanned = _counts_q2(gen, threads) if q == 2 else _counts_qp(gen, q)
    counts = [int(c) for c in counts]
    if side == "dual":
        counts = _macwilliams(counts, q, dim)
    elif sum(counts) != total:
        raise RuntimeError(f"weight distribution has {sum(counts)} codewords, not {q}^{dim}")
    if counts[0] != 1:
        raise RuntimeError(f"weight distribution has {counts[0]} zero codewords, not 1")
    weight_counts = {w: c for w, c in enumerate(counts) if c}
    nonzero = sorted(w for w in weight_counts if w > 0)
    if not nonzero:
        raise DomainError("code has no nonzero codeword")
    w1 = nonzero[0]
    w2 = nonzero[1] if len(nonzero) > 1 else None
    targets = [w1] if w2 is None else [w1, w2]
    if q == 2:
        pool = _witnesses_q2(code.gen, targets)
    else:
        pool = _witnesses_qp(code.gen, q, targets)
    messages = [_unpack_message(m, dim, q) for w in targets for m in pool[w]]
    supports = codeword_support(code, messages)
    witnesses = [Witness(m, sup) for m, sup in zip(messages, supports)]
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return WeightReport(
        params=code.params,
        length=length,
        dimension=dim,
        side=side,
        codewords_scanned=scanned,
        min_weight=w1,
        next_weight=w2,
        weight_counts=weight_counts,
        witnesses=witnesses,
        elapsed_ms=elapsed_ms,
    )


def _macwilliams(dual_counts: list[int], q: int, dim: int) -> list[int]:
    """Weight distribution of a code of dimension ``dim`` from that of its
    dual, ``dual_counts[i]`` = B_i for i = 0..N:
    A_j = q^-(N-dim) * sum_i B_i * K_j(i; N, q), exactly."""
    length = len(dual_counts) - 1
    acc = [0] * (length + 1)
    for i, b in enumerate(dual_counts):
        if b:
            for j, kj in enumerate(_krawtchouk_column(i, length, q)):
                acc[j] += b * kj
    size = q ** (length - dim)
    counts = []
    for j, s in enumerate(acc):
        a, r = divmod(s, size)
        if r:
            raise RuntimeError(f"MacWilliams sum for weight {j} is {s}, not a multiple of {size}")
        if a < 0:
            raise RuntimeError(f"MacWilliams transform gives {a} codewords of weight {j}")
        counts.append(a)
    if sum(counts) != q**dim:
        raise RuntimeError(f"MacWilliams transform gives {sum(counts)} codewords, not {q}^{dim}")
    return counts


def _krawtchouk_column(i: int, length: int, q: int) -> list[int]:
    """[K_j(i; N, q) for j = 0..N]: the coefficients of
    (1 + (q-1) z)^(N-i) * (1 - z)^i."""
    col = [0] * (length + 1)
    for a in range(length - i + 1):
        ca = comb(length - i, a) * (q - 1) ** a
        for b in range(i + 1):
            col[a + b] += ca * (-1) ** b * comb(i, b)
    return col


def _unpack_message(m: int, dim: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(dim):
        m, r = divmod(m, q)
        out.append(r)
    return tuple(out)


# -- q = 2 -------------------------------------------------------------------


def _low_table(rows: np.ndarray, bbits: int) -> np.ndarray:
    """table[m] = packed codeword of message m over the first bbits rows."""
    table = np.zeros((1 << bbits, rows.shape[1]), dtype=np.uint64)
    for j in range(bbits):
        table[1 << j : 2 << j] = table[: 1 << j] ^ rows[j]
    return table


def _block_weights(rows: np.ndarray, table: np.ndarray, bbits: int, h: int) -> np.ndarray:
    """Weights of the messages h*2^bbits + i, i = 0..2^bbits - 1."""
    base = np.zeros(table.shape[1], dtype=np.uint64)
    j = bbits
    while h:
        if h & 1:
            base ^= rows[j]
        h >>= 1
        j += 1
    return np.bitwise_count(table ^ base).sum(axis=1, dtype=np.int64)


def _blocked_counts_range(
    rows: np.ndarray, length: int, table: np.ndarray, bbits: int, h_lo: int, h_hi: int
) -> np.ndarray:
    """Counts for the contiguous message range [h_lo*2^b, h_hi*2^b)."""
    counts = np.zeros(length + 1, dtype=np.int64)
    for h in range(h_lo, h_hi):
        counts += np.bincount(_block_weights(rows, table, bbits, h), minlength=length + 1)
    return counts


def _counts_q2(gen: np.ndarray, threads: int) -> tuple[np.ndarray, int]:
    rows = pack_bits(gen)
    dim, length = gen.shape
    bbits = min(dim, _BLOCK_BITS)
    table = _low_table(rows, bbits)
    parts = _partition(1 << (dim - bbits), threads)
    if threads <= 1:
        partials = [
            _blocked_counts_range(rows, length, table, bbits, lo, hi)
            for lo, hi in parts
        ]
    else:
        # imported here: no other path needs concurrent.futures (and logging)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(
                ex.map(
                    lambda p: _blocked_counts_range(rows, length, table, bbits, *p),
                    parts,
                )
            )
    return sum(partials), 1 << dim


def _partition(nblocks: int, threads: int) -> list[tuple[int, int]]:
    nparts = max(1, min(threads, nblocks))
    step = nblocks // nparts
    bounds = [i * step for i in range(nparts)] + [nblocks]
    return [(bounds[i], bounds[i + 1]) for i in range(nparts)]


def _witnesses_q2(gen: np.ndarray, targets: list[int]) -> dict[int, list[int]]:
    rows = pack_bits(gen)
    dim = gen.shape[0]
    bbits = min(dim, _BLOCK_BITS)
    table = _low_table(rows, bbits)
    pool: dict[int, list[int]] = {t: [] for t in targets}
    # ascending message order, so the first K hits per weight are the
    # smallest; stops as soon as every target is filled
    for h in range(1 << (dim - bbits)):
        w = _block_weights(rows, table, bbits, h)
        for t in targets:
            need = WITNESS_CAP - len(pool[t])
            if need > 0:
                hits = np.nonzero(w == t)[0][:need]
                pool[t].extend((h << bbits) | int(i) for i in hits)
        if all(len(pool[t]) >= WITNESS_CAP for t in targets):
            break
    return pool


# -- q > 2 --------------------------------------------------------------------


def _digit_table(rows: np.ndarray, q: int) -> np.ndarray:
    """table[:, s] = sum_j s_j * rows[j] mod q, with s_j digit j of s in
    base q: the codewords of all q^b messages over the b ``rows``, one per
    column, built by q-ary doubling.  Before the reduction an entry is at
    most (q-1) + (q-1)^2 = q(q-1) <= 156, so uint8 holds it."""
    table = np.zeros((rows.shape[1], q ** rows.shape[0]), dtype=np.uint8)
    step = 1
    for g in rows.astype(np.uint8):
        for i in range(1, q):
            table[:, i * step : (i + 1) * step] = (table[:, :step] + (i * g)[:, None]) % q
        step *= q
    return table


def _class_blocks(gen: np.ndarray, q: int, lead: int):
    """Weights of the scalar-class representatives whose lowest nonzero
    digit is a 1 at position ``lead``: the messages q^lead + q^(lead+1)*r,
    codewords g_lead + r*G[lead+1:], for r ascending.  Yields (r0, weights)
    per block of q^b consecutive r starting at r0, where the low b digits
    of r index a table of at most _TABLE_BYTES bytes."""
    dim, length = gen.shape
    free = dim - lead - 1
    b = 0
    while b < free and q ** (b + 1) * length <= _TABLE_BYTES:
        b += 1
    table = _digit_table(gen[lead + 1 : lead + 1 + b], q)
    high = gen[lead + 1 + b :]
    wtype = np.min_scalar_type(length)  # uint8 unless N > 255
    for h in range(q ** (free - b)):
        digits = np.array([h // q**j % q for j in range(free - b)], dtype=np.int64)
        base = (gen[lead] + digits @ high) % q
        # coordinate c of table[:, s] + base is zero exactly where
        # table[c, s] == -base_c: one byte comparison, no reduction mod q
        neg = (-base % q).astype(np.uint8)
        w = (table != neg[:, None]).view(np.uint8).sum(axis=0, dtype=wtype)
        yield h * q**b, w


def _counts_qp(gen: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    dim, length = gen.shape
    counts = np.zeros(length + 1, dtype=np.int64)
    for lead in range(dim):
        for _, w in _class_blocks(gen, q, lead):
            counts += np.bincount(w, minlength=length + 1)
    counts *= q - 1  # each class has q-1 nonzero scalar multiples
    counts[0] += 1  # the zero codeword
    return counts, 1 + (q**dim - 1) // (q - 1)


def _witnesses_qp(gen: np.ndarray, q: int, targets: list[int]) -> dict[int, list[int]]:
    dim = gen.shape[0]
    pool: dict[int, list[int]] = {t: [] for t in targets}
    for lead in range(dim):
        # one lead's representatives come in ascending message order, so
        # its first K hits per weight are its K smallest; the lead stops
        # as soon as every target has them
        found: dict[int, list[int]] = {t: [] for t in targets}
        for r0, w in _class_blocks(gen, q, lead):
            for t in targets:
                need = WITNESS_CAP - len(found[t])
                if need > 0:
                    hits = np.flatnonzero(w == t)[:need]
                    found[t].extend(q**lead + q ** (lead + 1) * (r0 + int(s)) for s in hits)
            if all(len(found[t]) >= WITNESS_CAP for t in targets):
                break
        for t in targets:
            pool[t] = sorted(pool[t] + found[t])[:WITNESS_CAP]
    return pool


# -- independent oracle --------------------------------------------------------


def naive_weight_counts(code: Code, limit: int = 1 << 16) -> dict[int, int]:
    """Per-message matrix-multiply enumerator over all q^dimension
    messages.  Deliberately independent of the incremental paths; used
    as the equivalence oracle."""
    q, dim = code.params.q, code.dimension
    total = q**dim
    if total > limit:
        raise BudgetExceeded(f"naive enumeration of {total} messages, cap is {limit}")
    msgs = np.zeros((total, dim), dtype=np.int64)
    rem = np.arange(total, dtype=np.int64)
    for j in range(dim):
        msgs[:, j] = rem % q
        rem = rem // q
    cw = (msgs @ code.gen) % q
    w = np.count_nonzero(cw, axis=1)
    counts = np.bincount(w, minlength=code.length + 1)
    return {i: int(c) for i, c in enumerate(counts) if c}


# -- serialization --------------------------------------------------------------


def report_to_json(report: WeightReport) -> str:
    p = report.params
    doc = {
        "family": p.family,
        "q": p.q,
        "n": p.n,
        "d": p.d,
        "length": report.length,
        "dimension": report.dimension,
        "w1": report.min_weight,
        "w2": report.next_weight,
        "counts": {str(w): c for w, c in sorted(report.weight_counts.items())},
        "witnesses": [
            {"message": list(wit.message), "support": list(wit.support)}
            for wit in report.witnesses
        ],
        "scanned": report.codewords_scanned,
        "side": report.side,
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
