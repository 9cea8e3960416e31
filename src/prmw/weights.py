"""Exhaustive weight enumeration over the row space of a code.

Produces the exact full weight distribution, the minimum and
next-to-minimal weights, and witness codewords.

The counting pass starts from whichever of the code and its dual has
the strictly smaller dimension.  For a code of length N and dimension
k with N - k < k, the dual generator is the kernel of the generator
matrix; its distribution B is found and the code's distribution is
recovered exactly by the MacWilliams identity

    A_j = q^-(N-k) * sum_i B_i * K_j(i; N, q)

in Python integers, with K_j the Krawtchouk polynomials
(MacWilliams-Sloane, The Theory of Error-Correcting Codes, ch. 5).
Otherwise, the tie N - k = k included, the code itself is used.  The
report's ``side`` ("primal" or "dual") names the side chosen.  The
budget caps the code's own q^k whichever side is counted, since the
witness pass searches the code.

That side, of dimension k', is not enumerated itself but shortened on
two points: its subcode vanishing on coordinates 0 and 1, of dimension
k' - 2, is counted.  RM(n, d) is invariant under AGL(n, q) and PRM(n, d)
under PGL(n+1, q), which acts on the standard representatives by
monomial maps (permute the points, scale the values); both groups are
2-transitive on the points (Delsarte-Goethals-MacWilliams 1970;
Sorensen, "Projective Reed-Muller codes", 1991), and a dual has the
same group.  So every ordered pair of distinct coordinates has the same
number S_w of weight-w codewords vanishing on both, and counting pairs
(codeword, pair of its zeros) two ways gives

    A_w * (N-w)(N-w-1) = N(N-1) * S_w      for w <= N - 2;

A_(N-1) and A_N follow from sum A_w = q^k' and sum w*A_w =
N(q-1)q^(k'-1), which holds because no coordinate is zero on the whole
code.  A non-integral or negative A_w, or a subcode count other than
q^(k'-2), raises: a code without such a group breaks these checks.
When columns 0 and 1 of the side's generator are dependent (e.g.
RM(n, 0), or a side of dimension below 2) the side is counted whole.  The report's
``transform`` names the steps from the count to the distribution
("none", "macwilliams", "two-point" or "two-point+macwilliams") and
``codewords_scanned`` is what the counting pass visited.  On a 2-vCPU
VM PRM(3,3)/GF(3) counts the 193,710,245 classes of its shortened
[40,18] subcode in about 2 s.

Each field size has one block kernel; both yield blocks
``(m0, step, weights)``, weights[i] the weight of message m0 + step*i,
in streams of ascending message order, read by one counting loop and
one witness search.  Both kernels fill their table by doubling, and a
stream's first block comes as the doubling's new slices in ascending
message order: message 0, then after step j the messages whose highest
table digit is j, [q^j, q^(j+1)).  A count does the same work either
way; a witness search whose hits are small stops after a few tiny
slices instead of a whole block.

q = 2: the table holds the packed codewords of all messages over the
low b = min(k, 20) message bits; each block of 2^b messages is that
table XOR-ed with the codeword of the block's high bits, popcounted with
numpy.  A count of more than one block splits the blocks into
contiguous streams, one per CPU the process may use, run on threads;
the table is then filled before they start, and partial counts merge by
addition, so results do not depend on the split.

q > 2: exactly one codeword per scalar class is enumerated (messages
whose lowest nonzero digit is 1) and nonzero counts are multiplied by
q - 1.  Lead L's stream holds q^L + q^(L+1)*r for r ascending, with
codeword g_L + r*G[L+1:].  A uint8 table T holds the codewords of the
low b digits of r (at most 4 MB), and each block of q^b consecutive r
adds the codeword ``base`` of the lead and the high digits of r.  A
coordinate of T[s] + base is zero exactly where T[s] equals -base mod
q, so a block's weights are one byte comparison per coordinate: no
reduction mod q and no matrix product.

Witnesses are canonical: the up-to-K codewords of each extreme weight
with the smallest message values (sum_i m_i * q^i) among the enumerated
messages, so for q > 2 among the class representatives (RM(2,1)/GF(3)
gives weight-6 witnesses 1, 3, 4, not 2).  They always come from the
code itself.  The search stops a stream once its next message exceeds
the K-th smallest hit of every extreme weight, and skips a lead whose
first message q^L already does.

Supports are collected a batch at a time: ``codeword_support`` takes a
matrix of messages, one per row, and returns the boolean supports x
points matrix of a single product with the generator, which the
geometry predicates take as it is.  A report makes one such call for
all its witnesses, and ``verify`` one per instance, for every nonzero
message of an exhaustive one, else for the report's witnesses.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from math import comb, inf

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
    # how the count became the distribution: "none", "macwilliams",
    # "two-point" or "two-point+macwilliams"
    transform: str
    codewords_scanned: int
    min_weight: int
    next_weight: int | None
    weight_counts: dict[int, int]
    witnesses: list[Witness]
    elapsed_ms: int


def codeword_support(code: Code, messages) -> np.ndarray:
    """Where each codeword is nonzero, as a boolean matrix.

    ``messages`` is a batch, one message per row (a single message is a
    1-element batch); row i of the ``(batch, N)`` result is True at the
    points (canonical order) where codeword i is nonzero.  The whole
    batch is one ``(msgs @ gen) % q`` product.
    """
    msgs = np.asarray(messages, dtype=np.int64)
    if msgs.ndim != 2 or msgs.shape[1] != code.dimension:
        raise DomainError(
            f"messages of shape {msgs.shape} are not rows of length {code.dimension}"
        )
    return (msgs @ code.gen) % code.params.q != 0


def weight_report(code: Code, budget: int | None = None) -> WeightReport:
    """Exact weight distribution with extreme-weight witnesses.

    ``code`` is an RM or PRM code, or any code whose monomial
    automorphisms act 2-transitively on its coordinates (see the module
    docstring); on another code the two-point transform is not exact,
    and its checks raise RuntimeError when they catch that."""
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
    # the words of the counted side that vanish on coordinates 0 and 1:
    # dimension k - 2 unless those columns of its generator are dependent
    short = nullspace(gen[:, :2].T, code.gf)
    shortened = short.shape[0] == gen.shape[0] - 2
    counts, scanned = _counts((short @ gen) % q if shortened else gen, q)
    counts = [int(c) for c in counts]
    transforms = []
    if shortened:
        counts = _two_point(counts, q, gen.shape[0])
        transforms.append("two-point")
    if side == "dual":
        counts = _macwilliams(counts, q, dim)
        transforms.append("macwilliams")
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
    pool = _witnesses(code.gen, q, targets)
    messages = [_unpack_message(m, dim, q) for w in targets for m in pool[w]]
    supports = codeword_support(code, messages)
    witnesses = [Witness(m, tuple(np.flatnonzero(s).tolist())) for m, s in zip(messages, supports)]
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return WeightReport(
        params=code.params,
        length=length,
        dimension=dim,
        side=side,
        transform="+".join(transforms) or "none",
        codewords_scanned=scanned,
        min_weight=w1,
        next_weight=w2,
        weight_counts=weight_counts,
        witnesses=witnesses,
        elapsed_ms=elapsed_ms,
    )


def _two_point(short_counts: list[int], q: int, dim: int) -> list[int]:
    """Weight distribution of a code of length N and dimension ``dim``
    whose monomial automorphisms act 2-transitively on the coordinates,
    from ``short_counts[w]`` = S_w, the number of weight-w codewords
    vanishing on coordinates 0 and 1 (a subcode of dimension dim - 2):
    A_w * (N-w)(N-w-1) = N(N-1) * S_w for w <= N-2, and A_(N-1), A_N from
    sum A_w = q^dim and sum w*A_w = N(q-1)q^(dim-1), exactly."""
    length = len(short_counts) - 1
    if sum(short_counts) != q ** (dim - 2):
        raise RuntimeError(
            f"two-point shortened code has {sum(short_counts)} codewords, not {q}^{dim - 2}"
        )
    counts = []
    for w, s in enumerate(short_counts[: length - 1]):
        a, r = divmod(length * (length - 1) * s, (length - w) * (length - w - 1))
        if r:
            raise RuntimeError(f"two-point transform for weight {w} is not an integer")
        counts.append(a)
    rest = q**dim - sum(counts)  # A_(N-1) + A_N
    moment = length * (q - 1) * q ** (dim - 1) - sum(w * a for w, a in enumerate(counts))
    counts += [length * rest - moment, moment - (length - 1) * rest]
    for w, a in enumerate(counts):
        if a < 0:
            raise RuntimeError(f"two-point transform gives {a} codewords of weight {w}")
    return counts


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


# -- block kernels -------------------------------------------------------------


def _streams(gen: np.ndarray, q: int, parts: int = 1) -> list:
    """(first message, block iterator) per stream of the row space of
    ``gen``: for q = 2 up to ``parts`` contiguous streams of all 2^k
    messages; for q > 2 one per lead, ``parts`` unused."""
    if q == 2:
        return _bit_streams(gen, parts)
    return [(q**lead, _class_blocks(gen, q, lead)) for lead in range(gen.shape[0])]


def _low_table(table: np.ndarray, rows: np.ndarray):
    """Fill table[m] with the packed codeword of message m over ``rows``
    by doubling, yielding each message range [lo, hi) once it is filled:
    [0, 1), then [2^j, 2^(j+1)) after step j."""
    yield 0, 1
    for j, row in enumerate(rows):
        table[1 << j : 2 << j] = table[: 1 << j] ^ row
        yield 1 << j, 2 << j


def _bit_streams(gen: np.ndarray, parts: int) -> list:
    """q = 2: blocks of the messages h*2^b + i, i = 0..2^b - 1, for the
    high bits h in up to ``parts`` contiguous ranges sharing one table.
    Block h = 0 comes as the table's doubling slices while it is filled;
    several streams run on threads, so then it is filled first."""
    rows = pack_bits(gen)
    dim = gen.shape[0]
    bbits = min(dim, _BLOCK_BITS)
    table = np.zeros((1 << bbits, rows.shape[1]), dtype=np.uint64)
    whole = [(0, 1 << bbits)]
    first = _low_table(table, rows[:bbits])
    nblocks = 1 << (dim - bbits)
    parts = min(parts, nblocks)
    if parts > 1:
        for _ in first:
            pass
        first = whole

    def blocks(h_lo: int, h_hi: int):
        for h in range(h_lo, h_hi):
            base = np.zeros(table.shape[1], dtype=np.uint64)
            for j in range(dim - bbits):
                if h >> j & 1:
                    base ^= rows[bbits + j]
            for lo, hi in first if h == 0 else whole:
                w = np.bitwise_count(table[lo:hi] ^ base).sum(axis=1, dtype=np.int64)
                yield h << bbits | lo, 1, w

    bounds = [nblocks * i // parts for i in range(parts + 1)]
    return [(lo << bbits, blocks(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def _digit_table(table: np.ndarray, rows: np.ndarray, q: int):
    """Fill table[:, s] with sum_j s_j * rows[j] mod q, s_j digit j of s in
    base q: the codewords of all q^b messages over the b ``rows``, one per
    column, by q-ary doubling, yielding each range of s [lo, hi) once it
    is filled: [0, 1), then [q^j, q^(j+1)) after step j.  Before the
    reduction an entry is at most (q-1) + (q-1)^2 = q(q-1) <= 156, so
    uint8 holds it."""
    yield 0, 1
    step = 1
    for g in rows.astype(np.uint8):
        for i in range(1, q):
            table[:, i * step : (i + 1) * step] = (table[:, :step] + (i * g)[:, None]) % q
        yield step, q * step
        step *= q


def _class_blocks(gen: np.ndarray, q: int, lead: int):
    """q > 2: blocks of the scalar-class representatives whose lowest
    nonzero digit is a 1 at position ``lead``: the messages
    q^lead + q^(lead+1)*r, codewords g_lead + r*G[lead+1:], for r
    ascending.  A block holds q^b consecutive r, whose low b digits index
    a table of at most _TABLE_BYTES bytes; the first block comes as the
    table's doubling slices while it is filled."""
    dim, length = gen.shape
    free = dim - lead - 1
    b = 0
    while b < free and q ** (b + 1) * length <= _TABLE_BYTES:
        b += 1
    table = np.zeros((length, q**b), dtype=np.uint8)
    whole = [(0, q**b)]
    first = _digit_table(table, gen[lead + 1 : lead + 1 + b], q)
    high = gen[lead + 1 + b :]
    wtype = np.min_scalar_type(length)  # uint8 unless N > 255
    step = q ** (lead + 1)
    for h in range(q ** (free - b)):
        digits = np.array([h // q**j % q for j in range(free - b)], dtype=np.int64)
        base = (gen[lead] + digits @ high) % q
        # coordinate c of table[:, s] + base is zero exactly where
        # table[c, s] == -base_c: one byte comparison, no reduction mod q
        neg = (-base % q).astype(np.uint8)
        for lo, hi in first if h == 0 else whole:
            w = (table[:, lo:hi] != neg[:, None]).view(np.uint8).sum(axis=0, dtype=wtype)
            yield q**lead + step * (h * q**b + lo), step, w


# -- counting and witness search ---------------------------------------------------


def _counts(gen: np.ndarray, q: int, workers: int | None = None) -> tuple[np.ndarray, int]:
    """Weight distribution of the row space of ``gen`` (indexed by weight)
    and the number of codewords it stands for.  A binary count of more
    than one block runs its streams on ``workers`` threads, by default
    one per CPU this process may use; partial counts merge by addition."""
    dim, length = gen.shape
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            workers = os.cpu_count() or 1
    blocks = [it for _, it in _streams(gen, q, workers)]

    def tally(stream) -> np.ndarray:
        counts = np.zeros(length + 1, dtype=np.int64)
        for _, _, w in stream:
            counts += np.bincount(w, minlength=length + 1)
        return counts

    if q == 2 and len(blocks) > 1:
        # imported here: no other path needs concurrent.futures (and logging)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(blocks)) as ex:
            partials = list(ex.map(tally, blocks))
    else:
        partials = map(tally, blocks)
    counts = sum(partials, np.zeros(length + 1, dtype=np.int64))  # q > 2, k = 0: no stream
    if q == 2:
        return counts, 1 << dim
    counts *= q - 1  # each class has q-1 nonzero scalar multiples
    counts[0] += 1  # the zero codeword
    return counts, 1 + (q**dim - 1) // (q - 1)


def _witnesses(gen: np.ndarray, q: int, targets: list[int]) -> dict[int, list[int]]:
    """The WITNESS_CAP smallest message values of each target weight
    among the messages the kernel yields."""
    pool: dict[int, list[int]] = {t: [] for t in targets}

    def cutoff() -> float:
        # no message above this can enter any target's smallest K
        return max(p[-1] if len(p) >= WITNESS_CAP else inf for p in pool.values())

    for first, stream in _streams(gen, q):
        if first > cutoff():
            continue
        for m0, step, w in stream:
            # a block is ascending, so its first K hits are its K smallest
            for t in targets:
                hits = np.flatnonzero(w == t)[:WITNESS_CAP]
                pool[t] = sorted(pool[t] + [m0 + step * int(i) for i in hits])[:WITNESS_CAP]
            if m0 + step * len(w) > cutoff():
                break
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
        "transform": report.transform,
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
