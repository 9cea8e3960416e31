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
PRM(3,3)/GF(3) (k = 20, N = 40).  The budget caps the code's own q^k
whichever side is counted, since the witness pass searches the code.

q = 2: messages are walked in Gray-code order, each step XOR-ing one
generator row into the running codeword and popcounting.  Above a size
threshold the message space is partitioned into contiguous ranges and
each range is processed by a vectorized kernel (a doubling table over
the low message bits plus numpy popcount); partial counts merge by
addition and witnesses are re-ranked by message value, so results are
independent of the partition schedule.

q > 2: exactly one codeword per scalar class is enumerated (messages
whose first nonzero digit is 1) and nonzero counts are multiplied by
q - 1.

Witnesses are canonical: the up-to-K codewords of each extreme weight
whose message integers are smallest (message value sum_i m_i * q^i).
They always come from the code itself, searched in ascending message
order so the search stops once every extreme weight has K.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np

from .codes import Code, nullspace
from .errors import BudgetExceeded, DomainError

DEFAULT_BUDGET = 1 << 32
WITNESS_CAP = 3

# pure-python Gray walk below this many messages, blocked kernel above
_GRAY_LIMIT = 1 << 20
_BLOCK_BITS = 20


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


def codeword_support(code: Code, message) -> tuple[int, ...]:
    """Indices (canonical point order) where the codeword is nonzero."""
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape != (code.dimension,):
        raise DomainError(
            f"message length {msg.shape} does not match dimension {code.dimension}"
        )
    cw = (msg @ code.gen) % code.params.q
    return tuple(int(i) for i in np.nonzero(cw)[0])


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
    witnesses = [
        Witness(_unpack_message(m, dim, q), _support_of_message(code, m))
        for w in targets
        for m in pool[w]
    ]
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


def _support_of_message(code: Code, m: int) -> tuple[int, ...]:
    return codeword_support(code, _unpack_message(m, code.dimension, code.params.q))


# -- q = 2 -------------------------------------------------------------------


def _pack_rows(code: Code) -> list[int]:
    return _pack_gen(code.gen)


def _pack_gen(gen: np.ndarray) -> list[int]:
    """Each generator row as an int, bit j set where column j is 1."""
    rows = []
    for row in gen:
        x = 0
        for j, v in enumerate(row):
            if v:
                x |= 1 << int(j)
        rows.append(x)
    return rows


def gray_weight_counts(rows: list[int], length: int) -> np.ndarray:
    """Reference enumerator: full Gray-code walk over all 2^len(rows)
    messages, one row XOR and one popcount per step."""
    buf = [0] * (length + 1)
    buf[0] = 1
    cw = 0
    for i in range(1, 1 << len(rows)):
        cw ^= rows[(i & -i).bit_length() - 1]
        buf[cw.bit_count()] += 1
    return np.array(buf, dtype=np.int64)


def _low_table(rows: list[int], bbits: int, nwords: int) -> np.ndarray:
    """table[m] = packed codeword of message m over the first bbits rows."""
    table = np.zeros((1 << bbits, nwords), dtype=np.uint64)
    for j in range(bbits):
        words = [(rows[j] >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(nwords)]
        table[1 << j : 2 << j] = table[: 1 << j] ^ np.array(words, dtype=np.uint64)
    return table


def _blocked_counts_range(
    rows: list[int], length: int, table: np.ndarray, bbits: int, h_lo: int, h_hi: int
) -> np.ndarray:
    """Counts for the contiguous message range [h_lo*2^b, h_hi*2^b)."""
    nwords = table.shape[1]
    counts = np.zeros(length + 1, dtype=np.int64)
    for h in range(h_lo, h_hi):
        base = 0
        hh = h
        j = bbits
        while hh:
            if hh & 1:
                base ^= rows[j]
            hh >>= 1
            j += 1
        basew = np.array(
            [(base >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(nwords)],
            dtype=np.uint64,
        )
        w = np.bitwise_count(table ^ basew).sum(axis=1, dtype=np.int64)
        counts += np.bincount(w, minlength=length + 1)
    return counts


def _counts_q2(gen: np.ndarray, threads: int) -> tuple[np.ndarray, int]:
    rows = _pack_gen(gen)
    dim, length = gen.shape
    total = 1 << dim
    if total <= _GRAY_LIMIT:
        return gray_weight_counts(rows, length), total
    bbits = min(dim, _BLOCK_BITS)
    nwords = (length + 63) // 64
    table = _low_table(rows, bbits, nwords)
    nblocks = 1 << (dim - bbits)
    parts = _partition(nblocks, threads)
    if threads <= 1:
        partials = [
            _blocked_counts_range(rows, length, table, bbits, lo, hi)
            for lo, hi in parts
        ]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(
                ex.map(
                    lambda p: _blocked_counts_range(rows, length, table, bbits, *p),
                    parts,
                )
            )
    return sum(partials), total


def _partition(nblocks: int, threads: int) -> list[tuple[int, int]]:
    nparts = max(1, min(threads, nblocks))
    step = nblocks // nparts
    bounds = [i * step for i in range(nparts)] + [nblocks]
    return [(bounds[i], bounds[i + 1]) for i in range(nparts)]


def _gray_witnesses(
    rows: list[int], targets: list[int], cap: int
) -> dict[int, list[int]]:
    """K smallest message values per target weight, via a Gray walk."""
    pool: dict[int, list[int]] = {t: [] for t in targets}
    tset = set(targets)
    cw = 0
    for i in range(1, 1 << len(rows)):
        cw ^= rows[(i & -i).bit_length() - 1]
        m = i ^ (i >> 1)
        w = cw.bit_count()
        if w in tset:
            lst = pool[w]
            if len(lst) < cap:
                lst.append(m)
                lst.sort()
            elif m < lst[-1]:
                lst[-1] = m
                lst.sort()
    return pool


def _witnesses_q2(gen: np.ndarray, targets: list[int]) -> dict[int, list[int]]:
    rows = _pack_gen(gen)
    dim, length = gen.shape
    if (1 << dim) <= _GRAY_LIMIT:
        return _gray_witnesses(rows, targets, WITNESS_CAP)
    bbits = min(dim, _BLOCK_BITS)
    nwords = (length + 63) // 64
    table = _low_table(rows, bbits, nwords)
    nblocks = 1 << (dim - bbits)
    pool: dict[int, list[int]] = {t: [] for t in targets}
    # ascending message order, so the first K hits per weight are the
    # smallest; stops as soon as every target is filled
    for h in range(nblocks):
        base = 0
        hh, j = h, bbits
        while hh:
            if hh & 1:
                base ^= rows[j]
            hh >>= 1
            j += 1
        basew = np.array(
            [(base >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(nwords)],
            dtype=np.uint64,
        )
        w = np.bitwise_count(table ^ basew).sum(axis=1, dtype=np.int64)
        for t in targets:
            need = WITNESS_CAP - len(pool[t])
            if need > 0:
                hits = np.nonzero(w == t)[0][:need]
                pool[t].extend((h << bbits) | int(i) for i in hits)
        if all(len(pool[t]) >= WITNESS_CAP for t in targets):
            break
    return pool


# -- q > 2 --------------------------------------------------------------------


def _class_reps(dim: int, q: int, lead: int, chunk: int = 1 << 14):
    """Message matrices for scalar-class representatives with leading
    (lowest-index) nonzero digit 1 at position ``lead``, in ascending
    message order, chunked."""
    free = dim - lead - 1
    total = q**free
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        msgs = np.zeros((stop - start, dim), dtype=np.int64)
        msgs[:, lead] = 1
        rem = idx
        for j in range(free):
            msgs[:, lead + 1 + j] = rem % q
            rem = rem // q
        yield msgs


def _counts_qp(gen: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    dim, length = gen.shape
    counts = np.zeros(length + 1, dtype=np.int64)
    scanned = 1  # the zero codeword
    for lead in range(dim):
        for msgs in _class_reps(dim, q, lead):
            cw = (msgs @ gen) % q
            w = np.count_nonzero(cw, axis=1)
            counts += np.bincount(w, minlength=length + 1)
            scanned += msgs.shape[0]
    counts *= q - 1  # each class has q-1 nonzero scalar multiples
    counts[0] = 1
    return counts, scanned


def _witnesses_qp(gen: np.ndarray, q: int, targets: list[int]) -> dict[int, list[int]]:
    dim = gen.shape[0]
    qpow = np.array([q**i for i in range(dim)], dtype=object)
    pool: dict[int, list[int]] = {t: [] for t in targets}
    for lead in range(dim):
        # one lead's representatives come in ascending message order, so
        # its first K hits per weight are its K smallest; the lead stops
        # as soon as every target has them
        found: dict[int, list[int]] = {t: [] for t in targets}
        for msgs in _class_reps(dim, q, lead):
            w = np.count_nonzero((msgs @ gen) % q, axis=1)
            for t in targets:
                need = WITNESS_CAP - len(found[t])
                if need > 0:
                    hits = np.nonzero(w == t)[0][:need]
                    found[t].extend(int((msgs[i] * qpow).sum()) for i in hits)
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
