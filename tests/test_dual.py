"""Counting the dual and transforming back (MacWilliams) must give exactly
what enumerating the code itself gives."""

from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import prmw.codes
import prmw.weights as W
from prmw import CodeParams, build, naive_weight_counts, weight_report
from prmw.codes import Code, nullspace, rref, rref_kernel
from prmw.gfp import GF

NAIVE_LIMIT = 1 << 16


def _instances():
    # every instance whose primal enumeration fits in a test run; binary
    # PRM(4,5), RM(5,4) and RM(5,5) (2^31+ codewords) are left out
    out = [("prm", 2, n, d) for n in range(1, 5) for d in range(1, n + 2) if (n, d) != (4, 5)]
    out += [("rm", 2, n, d) for n in range(1, 6) for d in range(n + 1) if d <= 3 or n < 5]
    out += [("prm", 3, 2, d) for d in range(1, 6)]
    out += [("rm", 3, 2, d) for d in range(5)]
    out += [("rm", 3, 3, d) for d in range(3)]
    out += [("prm", 5, 1, d) for d in range(1, 6)]
    out += [("prm", 7, 1, d) for d in range(1, 8)]
    out += [("prm", 5, 2, 2), ("prm", 7, 2, 2)]
    out += [("prm", 7, 3, 1)]  # weight 343: above uint8
    return out


def _kernel_counts(gen, q):
    """The counting kernel's distribution of the row space of ``gen``,
    as a list indexed by weight."""
    return [int(c) for c in W._counts(gen, q, 1)]


def _as_dict(counts):
    return {w: c for w, c in enumerate(counts) if c}


def _full_scan_witnesses_qp(gen, q, targets):
    # every class representative (highest nonzero digit 1) is multiplied
    # out as a message matrix and the K smallest per target kept; shares
    # no code with the kernel
    dim = gen.shape[0]
    qpow = np.array([q**i for i in range(dim)], dtype=object)
    pool = {t: [] for t in targets}
    for top in range(dim):
        r = np.arange(q**top, dtype=np.int64)
        msgs = np.zeros((q**top, dim), dtype=np.int64)
        msgs[:, top] = 1
        for j in range(top):
            msgs[:, j] = r // q**j % q
        w = np.count_nonzero((msgs @ gen) % q, axis=1)
        for t in targets:
            for i in np.nonzero(w == t)[0]:
                m = int((msgs[i] * qpow).sum())
                lst = pool[t]
                if len(lst) < W.WITNESS_CAP:
                    lst.append(m)
                    lst.sort()
                elif m < lst[-1]:
                    lst[-1] = m
                    lst.sort()
    return pool


def _matrix_code(gen, q):
    # naive_weight_counts reads only the generator and q
    return Code(CodeParams("rm", q, 1, 0), gen, ())


@pytest.mark.parametrize("family,q,n,d", _instances())
def test_report_matches_primal_enumeration(family, q, n, d):
    code = build(CodeParams(family, q, n, d))
    rep = weight_report(code)
    expected_side = "dual" if code.length - code.dimension < code.dimension else "primal"
    assert rep.side == expected_side
    assert rep.transform.endswith("macwilliams") == (expected_side == "dual")
    assert rep.weight_counts == _as_dict(_kernel_counts(code.gen, q))
    if q**code.dimension <= NAIVE_LIMIT:
        assert rep.weight_counts == naive_weight_counts(code)
    if q > 2:
        targets = [t for t in (rep.min_weight, rep.next_weight) if t is not None]
        assert W._witnesses(code.gen, q, targets) == _full_scan_witnesses_qp(
            code.gen, q, targets
        )


class TestSideChoice:
    def test_dual_of_dimension_zero(self):
        # PRM(2,3) over GF(2) is all of GF(2)^7: its dual is {0}
        code = build(CodeParams("prm", 2, 2, 3))
        rep = weight_report(code)
        assert (rep.side, rep.codewords_scanned) == ("dual", 1)
        assert rep.weight_counts == naive_weight_counts(code)

    def test_report_runs_no_elimination(self, monkeypatch):
        # code.gen is already reduced: the dual is read off it and either
        # side's two-point subcode is a slice of its rows
        codes = [build(CodeParams(*c)) for c in [("rm", 2, 5, 2), ("prm", 2, 3, 3),
                                                 ("prm", 3, 3, 2), ("prm", 3, 2, 3)]]

        def no_elimination(*args):
            raise AssertionError("weight_report ran a Gauss-Jordan pass")

        monkeypatch.setattr(prmw.codes, "_eliminate", no_elimination)
        reports = [weight_report(code) for code in codes]
        assert [rep.side for rep in reports] == ["primal", "dual", "primal", "dual"]
        for code, rep in zip(codes, reports):
            assert rep.weight_counts == naive_weight_counts(code)

    @pytest.mark.parametrize("family,q,n,d", [("rm", 2, 5, 2), ("prm", 7, 1, 3)])
    def test_tie_stays_primal(self, family, q, n, d):
        code = build(CodeParams(family, q, n, d))
        assert code.length == 2 * code.dimension
        assert weight_report(code).side == "primal"

    def test_blocked_kernel_on_primal_generator(self, monkeypatch):
        # weight_report counts these through their duals; the blocked
        # q = 2 kernel must still count the code itself
        monkeypatch.setattr(W, "_TABLE_BYTES", 2**4 * 8)
        for family, n, d in [("rm", 4, 2), ("prm", 3, 3)]:
            code = build(CodeParams(family, 2, n, d))
            assert _as_dict(_kernel_counts(code.gen, 2)) == naive_weight_counts(code)


@pytest.fixture(scope="module")
def prm_3_2():
    """PRM(3,2) over GF(2), a [15,10] code, and its dual's distribution."""
    code = build(CodeParams("prm", 2, 3, 2))
    return code, _kernel_counts(nullspace(code.gen, code.gf), 2)


class TestTransformInvariants:
    def test_true_dual_transforms(self, prm_3_2):
        code, dual = prm_3_2
        assert _as_dict(W._macwilliams(dual, 2, code.dimension)) == naive_weight_counts(code)

    @staticmethod
    def _moved_word(b):
        # one dual word of the smallest nonzero weight moved up by one
        w = next(i for i, c in enumerate(b) if c and i > 0)
        return b[:w] + [b[w] - 1, b[w + 1] + 1] + b[w + 2 :]

    @pytest.mark.parametrize(
        "corrupt,match",
        [
            (_moved_word, "not a multiple"),
            # divisible and non-negative, but twice as many codewords
            (lambda b: [2 * c for c in b], "codewords, not"),
        ],
    )
    def test_corrupted_dual_raises(self, prm_3_2, corrupt, match):
        code, dual = prm_3_2
        with pytest.raises(RuntimeError, match=match):
            W._macwilliams(corrupt(dual), 2, code.dimension)

    def test_negative_count_raises(self):
        # B = (1, 3, 0) over GF(2), N = 2, k = 1 transforms to (2, 1, -1)
        with pytest.raises(RuntimeError, match="gives -1 codewords"):
            W._macwilliams([1, 3, 0], 2, 1)


class TestTwoPoint:
    # the two-point transform is exact only for codes whose group is
    # 2-transitive on the points; RM and PRM are checked against the
    # unshortened count by test_report_matches_primal_enumeration

    @pytest.mark.parametrize(
        "q,seed", [(2, 1), (3, 1), (3, 2)], ids=["2", "3", "3-dependent-columns"]
    )
    def test_random_code_breaks_checks(self, q, seed):
        # a random code has no 2-transitive group: the shortened count
        # does not transform to integers.  Seed 1 draws a [10,4] code, seed
        # 2 an [8,3] code whose column 1 is twice column 0, shortened at
        # its first two pivots, columns 0 and 2
        shape = (4, 10) if seed == 1 else (3, 8)
        gen = np.random.default_rng(seed).integers(0, q, size=shape)
        if seed == 2:
            gen[:, 1] = 2 * gen[:, 0] % q
        red, rank, pivots = rref(gen, GF(q))
        code = _matrix_code(red[:rank], q)
        assert rank == shape[0] and pivots[:2] == ([0, 1] if seed == 1 else [0, 2])
        with pytest.raises(RuntimeError, match="two-point transform for weight 3 is not an integer"):
            weight_report(code)

    def test_negative_count_raises(self):
        # S = (1, 0, 0, 0, 0) over GF(2), N = 4, k = 2: A_0..A_2 = (1, 0, 0),
        # then A_3 = 4 and A_4 = -1
        with pytest.raises(RuntimeError, match="gives -1 codewords of weight 4"):
            W._two_point([1, 0, 0, 0, 0], 2, 2)


@st.composite
def generator_matrices(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    length = draw(st.integers(1, 12))
    # both sides small enough for naive enumeration
    kmax = max(k for k in range(length + 1) if q**k <= NAIVE_LIMIT)
    kmin = min(k for k in range(length + 1) if q ** (length - k) <= NAIVE_LIMIT)
    assume(kmin <= kmax)
    rows = draw(st.integers(max(kmin, 1), max(kmax, 1)))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * length, max_size=rows * length))
    red, rank, _ = rref(np.array(entries, dtype=np.int64).reshape(rows, length), GF(q))
    assume(rank > 0 and q ** (length - rank) <= NAIVE_LIMIT)
    return q, red[:rank]


@settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(generator_matrices())
def test_transform_of_naive_dual_is_naive_primal(qgen):
    q, gen = qgen
    dim, length = gen.shape
    primal = naive_weight_counts(_matrix_code(gen, q))
    kernel = nullspace(gen, GF(q))
    dual = naive_weight_counts(_matrix_code(kernel, q))
    # the kernel read off the reduced form, in its dtype, is a unit vector
    # at each non-pivot column and annihilates the code
    _, _, pivots = rref(gen, GF(q))
    free = [c for c in range(length) if c not in pivots]
    for red in (gen, gen.astype(np.uint8)):
        read_off = rref_kernel(red, q)
        assert read_off.dtype == red.dtype and np.array_equal(read_off, kernel)
    assert np.array_equal(kernel[:, free], np.eye(length - dim)) and not (gen @ kernel.T % q).any()
    as_list = [dual.get(i, 0) for i in range(length + 1)]
    assert _as_dict(W._macwilliams(as_list, q, dim)) == primal


def _binomial_macwilliams(dual, q, length, dim):
    """A_j = q^-(N-dim) * sum_i B_i * K_j(i; N, q), with every K_j(i)
    summed from binomials: sum_b (-1)^b C(i, b) C(N-i, j-b) (q-1)^(j-b)."""
    out = {}
    for j in range(length + 1):
        s = sum(
            c * (-1) ** b * comb(i, b) * comb(length - i, j - b) * (q - 1) ** (j - b)
            for i, c in dual.items()
            for b in range(max(0, j - (length - i)), min(i, j) + 1)
        )
        a, r = divmod(s, q ** (length - dim))
        assert r == 0 and a >= 0
        if a:
            out[j] = a
    return out


@pytest.mark.parametrize(
    "family,q,n,d,length,dual_dim",
    [
        ("prm", 2, 8, 7, 511, 10),
        ("rm", 7, 3, 16, 343, 4),
        ("prm", 7, 3, 17, 400, 4),
        ("prm", 3, 5, 9, 364, 6),
    ],
)
def test_long_code_matches_binomial_transform_of_naive_dual(family, q, n, d, length, dual_dim):
    # whole distributions of long codes with small duals: the report's
    # transform against the textbook Krawtchouk sums of the naive dual
    code = build(CodeParams(family, q, n, d))
    dual_gen = nullspace(code.gen, code.gf)
    assert (code.length, dual_gen.shape[0]) == (length, dual_dim)
    dual = naive_weight_counts(_matrix_code(dual_gen, q))
    rep = weight_report(code)
    assert rep.side == "dual"
    assert rep.weight_counts == _binomial_macwilliams(dual, q, length, code.dimension)


@st.composite
def scrambled_generators(draw, fields, max_length):
    """A random full-rank generator over one of ``fields`` with
    N <= ``max_length``, put in reduced form and then moved to a random
    basis of its row space by invertible row operations, so the kernel
    sees no identity columns."""
    q = draw(st.sampled_from(fields))
    length = draw(st.integers(1, max_length))
    kmax = max(k for k in range(length + 1) if q**k <= NAIVE_LIMIT)
    rows = draw(st.integers(1, kmax))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * length, max_size=rows * length))
    red, rank, _ = rref(np.array(entries, dtype=np.int64).reshape(rows, length), GF(q))
    assume(rank > 0)
    gen = red[:rank].copy()
    ops = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1), st.integers(1, q - 1))
    for i, j, c in draw(st.lists(ops, max_size=3 * rank)):
        if i == j:
            gen[i] = gen[i] * c % q
        else:
            gen[i] = (gen[i] + c * gen[j]) % q
    return q, gen


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(scrambled_generators([3, 5, 7], 12))
def test_qary_kernel_matches_naive(qgen):
    q, gen = qgen
    length = gen.shape[1]
    naive = naive_weight_counts(_matrix_code(gen, q))
    nonzero = sorted(w for w in naive if w)
    targets = nonzero[:2]
    # q bytes per coordinate: one digit per table and many blocks; the
    # default: every message in the table
    for table_bytes in (q * length, W._TABLE_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(W, "_TABLE_BYTES", table_bytes)
            assert _as_dict([int(c) for c in W._counts(gen, q)]) == naive
            assert W._witnesses(gen, q, targets) == _full_scan_witnesses_qp(gen, q, targets)


def _full_scan_witnesses_q2(gen, targets):
    # every message multiplied out at once, in ascending message order,
    # and the first K per target kept; shares no code with the kernel
    dim = gen.shape[0]
    msgs = (np.arange(2**dim, dtype=np.int64)[:, None] >> np.arange(dim)) & 1
    w = np.count_nonzero((msgs @ gen) % 2, axis=1)
    return {t: [int(m) for m in np.flatnonzero(w == t)[: W.WITNESS_CAP]] for t in targets}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(scrambled_generators([2], 16))
def test_binary_kernel_matches_naive(qgen):
    _, gen = qgen
    naive = naive_weight_counts(_matrix_code(gen, 2))
    targets = sorted(w for w in naive if w)[:2]
    # the default: one block per code; a table of 4 one-word rows:
    # 4-message blocks, split between 1 or 2 workers
    for table_bytes in (W._TABLE_BYTES, 2**2 * 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(W, "_TABLE_BYTES", table_bytes)
            for workers in (1, 2):
                assert _as_dict([int(c) for c in W._counts(gen, 2, workers)]) == naive
            assert W._witnesses(gen, 2, targets) == _full_scan_witnesses_q2(gen, targets)
