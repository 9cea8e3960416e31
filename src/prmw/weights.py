"""Exhaustive weight enumeration over the row space of a code.

Produces the exact full weight distribution, the minimum and
next-to-minimal weights, and witness codewords.

The counting pass starts from whichever of the code and its dual has
the strictly smaller dimension.  For a code of length N and dimension
k with N - k < k, the dual generator is the kernel of the generator
matrix; its distribution B is found and the code's distribution is
recovered exactly by the MacWilliams identity

    A_j = q^-(N-k) * sum_i B_i * K_j(i; N, q)

in Python integers, the Krawtchouk values K_j(i) stepped along j by
their three-term recurrence (MacWilliams-Sloane, The Theory of
Error-Correcting Codes, ch. 5), K_0 = 1, K_1(i) = N(q-1) - qi and

    (j+1) K_(j+1)(i) = ((N-j)(q-1) + j - qi) K_j(i) - (q-1)(N-j+1) K_(j-1)(i)

with exact division, for the dual weights i with B_i != 0 only: O(N)
integer steps per such weight, no binomials.  Otherwise, the tie
N - k = k included, the code itself is used.  The report's ``side``
("primal" or "dual") names the side chosen.

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

The budget caps the messages a pass visits.  A report whose count would
visit more than the budget refuses before it starts and names the count
as the budget it needs; the witness search, which walks the code itself
and cannot know its length ahead, raises once it has visited more.

Both fields enumerate one codeword per scalar class: the message whose
highest nonzero digit is 1, which for q = 2 is every nonzero message.
Nonzero counts are multiplied by q - 1 and the zero word is added.  A
message is h*q^b + s: one table holds the codewords of all q^b low parts
s, one per column, b the most digits (at most k) whose table fits in
_TABLE_BYTES (1 MB), so that the table and each stream's work buffer,
as large as the table, stay in a core's L2 cache (2 MB per core on the
2-vCPU host measured; 4 MB tables spilled out of it).  It is filled by
q-ary doubling with the field's addition: XOR on packed 64-bit words
for q = 2, a byte sum mod q for q > 2.  The walk yields blocks
``(m0, weights)``, weights[i] the weight of message m0 + i, in
ascending message order: for h = 0 the table's doubling slices
[q^j, 2q^j) as it is filled, then for each h whose highest digit is 1
one block of all q^b columns, the table plus the codeword of h's
digits.  One counting loop and one witness search read
the blocks; a search whose witnesses are small messages stops after a
few tiny slices.

A block marks the nonzero coordinates of each of its codewords in one
work buffer of the table's shape, and one column sum gives the weights.
For q = 2 the mark is the table XOR-ed with the packed offset codeword,
itself the XOR of the packed rows of h's 1 digits, popcounted in place;
for q > 2 a coordinate of T[s] + offset is zero exactly where T[s]
equals -offset mod q, so the mark is one byte comparison per
coordinate, with no reduction mod q and no matrix product.  A binary
count of more than one block splits the high parts into contiguous
ranges, one per CPU the process may use, run on threads; the table is
then filled before they start, and partial counts merge by addition, so
results do not depend on the split.

Witnesses are canonical: the up-to-K codewords of each extreme weight
with the smallest message values (sum_i m_i * q^i) among the enumerated
messages, so for q > 2 among the class representatives (RM(2,1)/GF(3)
gives weight-6 witnesses 1, 3, 4, not 2).  They always come from the
code itself.  The walk ascends, so the search stops after the first
block that fills every weight's K.

Supports are collected a batch at a time: ``codeword_support`` takes a
matrix of messages, one per row, and returns the boolean supports x
points matrix of exact float32 products with the generator, a block of
messages at a time, which the geometry predicates take as it is.  A
report makes one such call for all its witnesses, and ``verify`` one
per instance, for one nonzero message per scalar class of an
exhaustive one (multiples share a support), else for the report's
witnesses.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .codes import Code, nullspace, pack_bits
from .errors import BudgetExceeded, DomainError
from .gfp import F32_BLOCK, reduce_mod, require_f32_exact

DEFAULT_BUDGET = 1 << 32
WITNESS_CAP = 3

# byte size cap of either kernel's low-digit table
_TABLE_BYTES = 1 << 20


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
    points (canonical order) where codeword i is nonzero.  The messages
    are reduced mod q, and the batch is a float32 product with the
    generator, ``F32_BLOCK`` entries at a time, exact because every sum
    is at most k(q-1)^2 < 2^24: ``ENTRY_CAP`` bounds k*N <= 2^26 with
    k <= N, so k <= 2^13, and (q-1)^2 <= 144 < 2^11.  The sums are cast
    to the smallest unsigned type holding them; one is nonzero mod q
    where it differs from ``sum // q * q``.
    """
    msgs = np.asarray(messages)
    if msgs.dtype.kind not in "iu":
        msgs = np.asarray(messages, dtype=np.int64)
    if msgs.ndim != 2 or msgs.shape[1] != code.dimension:
        raise DomainError(
            f"messages of shape {msgs.shape} are not rows of length {code.dimension}"
        )
    q = code.params.q
    bound = code.dimension * (q - 1) ** 2
    require_f32_exact(bound, "codeword support")
    gen = code.gen.astype(np.float32)
    out = np.empty((len(msgs), code.length), dtype=bool)
    step = max(1, F32_BLOCK // max(1, code.length))
    for i in range(0, len(msgs), step):
        sums = reduce_mod(msgs[i : i + step], q).astype(np.float32) @ gen
        sums = sums.astype(np.min_scalar_type(bound))
        np.not_equal(sums, sums // q * q, out=out[i : i + step])
    return out


def weight_report(code: Code, budget: int | None = None) -> WeightReport:
    """Exact weight distribution with extreme-weight witnesses.

    ``code`` is an RM or PRM code, or any code whose monomial
    automorphisms act 2-transitively on its coordinates (see the module
    docstring); on another code the two-point transform is not exact,
    and its checks raise RuntimeError when they catch that."""
    budget = DEFAULT_BUDGET if budget is None else budget
    t0 = time.perf_counter()
    q = code.params.q
    dim = code.dimension
    length = code.length
    # the counted side has dimension k' = min(k, N - k), and the count
    # visits at least its words vanishing on two points: refuse before
    # the dual's Gauss-Jordan pass where even those are past budget
    if min(dim, length - dim) >= 2:
        _refuse_past_budget(code, min(dim, length - dim) - 2, budget)
    if length - dim < dim:
        side, gen = "dual", nullspace(code.gen, code.gf)
    else:
        side, gen = "primal", code.gen
    # the words of the counted side that vanish on coordinates 0 and 1:
    # dimension k - 2 unless those columns of its generator are dependent
    short = nullspace(gen[:, :2].T, code.gf)
    shortened = short.shape[0] == gen.shape[0] - 2
    scanned = _refuse_past_budget(code, short.shape[0] if shortened else gen.shape[0], budget)
    counted = (short @ gen) % q if shortened else gen
    counts = [int(c) for c in _counts(counted, q)]
    transforms = []
    if shortened:
        counts = _two_point(counts, q, gen.shape[0])
        transforms.append("two-point")
    if side == "dual":
        counts = _macwilliams(counts, q, dim)
        transforms.append("macwilliams")
    elif sum(counts) != q**dim:
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
    pool = _witnesses(code.gen, q, targets, budget)
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


def _refuse_past_budget(code: Code, k: int, budget: int) -> int:
    """The messages a count of dimension k stands for, the zero word and
    one per scalar class; BudgetExceeded if they are past ``budget``."""
    p = code.params
    scanned = 1 + (p.q**k - 1) // (p.q - 1)
    if scanned > budget:
        raise BudgetExceeded(
            f"{p.family}(n={p.n}, d={p.d}) over GF({p.q}) "
            f"counts {scanned} messages; needs budget {scanned}, budget is {budget}"
        )
    return scanned


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
    A_j = q^-(N-dim) * sum_i B_i * K_j(i; N, q), exactly, with K_j(i)
    stepped along j for the i with B_i != 0 by the Krawtchouk recurrence."""
    length = len(dual_counts) - 1
    support = [(i, b) for i, b in enumerate(dual_counts) if b]
    size = q ** (length - dim)
    prev, cur = [0] * len(support), [1] * len(support)  # K_(j-1)(i), K_j(i)
    counts = []
    for j in range(length + 1):
        s = sum(b * k for (_, b), k in zip(support, cur))
        a, r = divmod(s, size)
        if r:
            raise RuntimeError(f"MacWilliams sum for weight {j} is {s}, not a multiple of {size}")
        if a < 0:
            raise RuntimeError(f"MacWilliams transform gives {a} codewords of weight {j}")
        counts.append(a)
        prev, cur = cur, [
            (((length - j) * (q - 1) + j - q * i) * k - (q - 1) * (length - j + 1) * p) // (j + 1)
            for (i, _), k, p in zip(support, cur, prev)
        ]
    if sum(counts) != q**dim:
        raise RuntimeError(f"MacWilliams transform gives {sum(counts)} codewords, not {q}^{dim}")
    return counts


def _unpack_message(m: int, dim: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(dim):
        m, r = divmod(m, q)
        out.append(r)
    return tuple(out)


# -- block kernels -------------------------------------------------------------


def _table_digits(q: int, col_bytes: int, free: int) -> int:
    """The most low digits b <= free whose table, q^b columns of
    ``col_bytes`` bytes, fits in _TABLE_BYTES."""
    b = 0
    while b < free and q ** (b + 1) * col_bytes <= _TABLE_BYTES:
        b += 1
    return b


def _fill(table: np.ndarray, rows: np.ndarray, q: int, add):
    """Fill table[:, s] with sum_j s_j * rows[j], s_j digit j of s in base
    q and ``add`` the field's addition: the codewords of all q^b messages
    over the b ``rows``, one per column, by q-ary doubling.  Step j fills
    [q^j, q^(j+1)) and yields [q^j, 2q^j), the messages whose highest
    nonzero digit is a 1 at j."""
    step = 1
    for g in rows:
        for i in range(1, q):
            table[:, i * step : (i + 1) * step] = add(table[:, :step], (i * g)[:, None])
        yield step, 2 * step
        step *= q


def _streams(gen: np.ndarray, q: int, parts: int = 1) -> list:
    """Iterators of blocks ``(m0, weights)``, weights[i] the weight of
    message m0 + i, over the nonzero messages of the row space of ``gen``
    whose highest nonzero digit is 1 (for q = 2 all of them), each in
    ascending message order.  A message is h*q^b + s; one table holds the
    codewords of all q^b low parts s, one per column.  High part h = 0
    comes as the table's doubling slices [q^j, 2q^j) while it is filled,
    and every h whose highest digit is 1 as one block of all q^b columns.
    Up to ``parts`` iterators cover contiguous ranges of h and share the
    table, which is then filled before they start."""
    dim, length = gen.shape
    if q == 2:
        rows, add = pack_bits(gen), np.bitwise_xor

        def offset(digits, high):
            # the packed codeword of h: the XOR of its digits' packed rows
            return np.bitwise_xor.reduce(high[digits == 1], axis=0)

        def mark(off, cols, out):
            np.bitwise_xor(cols, off[:, None], out=out)
            np.bitwise_count(out, out=out)

    else:
        # before the reduction an entry is at most (q-1) + (q-1)^2 = q(q-1)
        # <= 156, so uint8 holds it
        rows = gen.astype(np.uint8)

        def add(a, g):
            return (a + g) % q

        def offset(digits, high):
            # -cw mod q for h's codeword cw: coordinate c of table[:, s] + cw
            # is zero exactly where table[c, s] == -cw_c, one byte comparison
            return (-(digits @ high) % q).astype(np.uint8)

        def mark(off, cols, out):
            np.not_equal(cols, off[:, None], out=out.view(bool))

    b = _table_digits(q, rows.itemsize * rows.shape[1], dim)
    table = np.zeros((rows.shape[1], q**b), rows.dtype)
    fill = _fill(table, rows[:b], q, add)
    wtype = np.min_scalar_type(length)  # uint8 unless N > 255
    high = rows[b:]
    runs = [(0, 1)] + [(q**j, 2 * q**j) for j in range(dim - b)]
    top = runs[-1][1]  # every h is below it
    parts = min(parts, top)
    first = fill if parts == 1 else list(fill)
    whole = [(0, q**b)]

    def blocks(h_lo: int, h_hi: int):
        buf = np.empty_like(table)  # one work buffer per stream, not one per block
        for lo_run, hi_run in runs:
            for h in range(max(lo_run, h_lo), min(hi_run, h_hi)):
                digits = np.array([h // q**j % q for j in range(dim - b)], dtype=np.int64)
                off = offset(digits, high)
                for lo, hi in first if h == 0 else whole:
                    x = buf[:, lo:hi]
                    mark(off, table[:, lo:hi], x)
                    yield h * q**b + lo, x.sum(axis=0, dtype=wtype)

    bounds = [top * i // parts for i in range(parts + 1)]
    return [blocks(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# -- counting and witness search ---------------------------------------------------


def _counts(gen: np.ndarray, q: int, workers: int | None = None) -> np.ndarray:
    """Weight distribution of the row space of ``gen``, indexed by
    weight.  A binary count of more than one block runs its streams on
    ``workers`` threads, by default one per CPU this process may use;
    partial counts merge by addition."""
    length = gen.shape[1]
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            workers = os.cpu_count() or 1
    # q > 2 counts stay on one thread.  With 1 MB tables a second stream
    # costs only its 1 MB work buffer, and on 2 vCPUs a split took
    # PRM(3,3)/GF(3) from 1.42 to 1.26 s; but it imports concurrent.futures
    # (and logging) and starts threads for counts as small as PRM(2,3)/GF(5)'s
    # 97,657 classes, whose `prmw table` run went 34.3 -> 35.3 MB peak RSS
    # and 8 -> 20 ms of main time
    streams = _streams(gen, q, workers if q == 2 else 1)

    def tally(stream) -> np.ndarray:
        counts = np.zeros(length + 1, dtype=np.int64)
        for _, w in stream:
            counts += np.bincount(w, minlength=length + 1)
        return counts

    if len(streams) > 1:
        # imported here: no other path needs concurrent.futures (and logging)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(streams)) as ex:
            partials = list(ex.map(tally, streams))
    else:
        partials = map(tally, streams)
    counts = sum(partials, np.zeros(length + 1, dtype=np.int64))
    counts *= q - 1  # each class has q-1 nonzero scalar multiples
    counts[0] += 1  # the zero codeword, not enumerated
    return counts


def _witnesses(
    gen: np.ndarray, q: int, targets: list[int], budget: int = DEFAULT_BUDGET
) -> dict[int, list[int]]:
    """The WITNESS_CAP smallest message values of each target weight
    among the messages the kernel yields; raises BudgetExceeded once the
    search has visited more than ``budget`` messages."""
    pool: dict[int, list[int]] = {t: [] for t in targets}
    visited = 0
    (stream,) = _streams(gen, q)
    for m0, w in stream:
        visited += len(w)
        if visited > budget:
            raise BudgetExceeded(f"witness search visited {visited} messages, past budget {budget}")
        for t in targets:
            hits = np.flatnonzero(w == t)[: WITNESS_CAP - len(pool[t])]
            pool[t] += [m0 + int(i) for i in hits]
        # the stream ascends: once every pool is full, no later message enters
        if all(len(p) == WITNESS_CAP for p in pool.values()):
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
