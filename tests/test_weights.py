import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmw import (
    BudgetExceeded,
    CodeParams,
    DomainError,
    build,
    codeword_support,
    naive_weight_counts,
    report_to_json,
    weight_report,
)
import prmw.weights as W
from prmw.codes import Code


@pytest.fixture
def small_blocks(monkeypatch):
    # split even tiny binary codes into many blocks of 2^4 one-word messages
    monkeypatch.setattr(W, "_TABLE_BYTES", 2**4 * 8)


def counts_of(arr):
    return {i: int(c) for i, c in enumerate(arr) if c}


def witness_visits(monkeypatch, code, targets):
    """The witness pool of ``code`` and the number of messages the
    search visited: the weights of every block it took, added up."""
    real = W._streams
    visited = 0

    def tally(blocks):
        nonlocal visited
        for m0, w in blocks:
            visited += len(w)
            yield m0, w

    monkeypatch.setattr(W, "_streams", lambda *a: [tally(it) for it in real(*a)])
    return W._witnesses(code.gen, code.params.q, targets), visited


def naive_witnesses(code, targets):
    """The first WITNESS_CAP binary messages of each target weight, in
    ascending message value, from the full message matrix."""
    dim = code.dimension
    msgs = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    w = np.count_nonzero((msgs @ code.gen) % 2, axis=1)
    return {t: [int(m) for m in np.flatnonzero(w == t)[: W.WITNESS_CAP]] for t in targets}


def report_rss_growth_kb(family, q, n, d):
    """How far one ``weight_report`` raises the peak RSS (kB) of a new
    interpreter that may use at most 2 CPUs.  The peak is the process's
    own VmHWM: its ru_maxrss starts at this test process's peak, which
    a child spawned by vfork inherits."""
    code = (
        "import os\n"
        "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
        "from prmw import CodeParams, build, weight_report\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        f"code = build(CodeParams({family!r}, {q}, {n}, {d}))\n"
        "before = peak()\n"
        "weight_report(code)\n"
        "print(peak() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(W.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return int(out.stdout)


class TestDistributions:
    def test_rm_2_1_gf2_frozen(self):
        rep = weight_report(build(CodeParams("rm", 2, 2, 1)))
        assert rep.weight_counts == {0: 1, 2: 6, 4: 1}
        assert (rep.min_weight, rep.next_weight) == (2, 4)
        # [4,3] code: the dual (the repetition code) is counted
        assert rep.side == "dual"
        assert rep.codewords_scanned == 2

    def test_prm_2_2_gf2_frozen(self):
        rep = weight_report(build(CodeParams("prm", 2, 2, 2)))
        assert rep.weight_counts == {0: 1, 2: 21, 4: 35, 6: 7}
        assert (rep.min_weight, rep.next_weight) == (2, 4)

    def test_prm_3_3_gf3_frozen(self):
        # [40,20] code over GF(3), recorded from the unshortened count of
        # all 1.74e9 scalar classes
        rep = weight_report(build(CodeParams("prm", 3, 3, 3)))
        assert rep.weight_counts == {
            0: 1,
            9: 1040,
            12: 18720,
            15: 1100736,
            18: 25761840,
            21: 236377440,
            24: 908079120,
            27: 1388750720,
            30: 783679104,
            33: 137535840,
            36: 5468320,
            39: 11520,
        }
        assert (rep.min_weight, rep.next_weight) == (9, 12)
        assert (rep.side, rep.transform) == ("primal", "two-point")

    @pytest.mark.parametrize(
        "q,n,w1,a1,w2,a2",
        [
            (3, 3, 18, 1_560, 24, 21_060),
            (3, 4, 54, 14_520, 72, 2_548_260),
            (5, 3, 100, 48_360, 120, 4_030_000),
            (7, 3, 294, 478_800, 336, 123_171_300),
        ],
    )
    def test_strict_qary_prm_2_frozen(self, q, n, w1, a1, w2, a2):
        # the q >= 3 rows whose W2 falls below that of RM(n, 1), recorded
        # from an enumeration of the classes by their lowest nonzero digit
        # (GF(7) by their highest); every one has W2 = q^n - q^(n-2)
        code = build(CodeParams("prm", q, n, 2))
        rep = weight_report(code)
        counts = rep.weight_counts
        assert (rep.min_weight, counts[w1], rep.next_weight, counts[w2]) == (w1, a1, w2, a2)
        assert rep.next_weight == q**n - q ** (n - 2)
        if q**code.dimension <= 1 << 16:
            assert counts == naive_weight_counts(code)

    def test_prm_3_2_gf2(self):
        rep = weight_report(build(CodeParams("prm", 2, 3, 2)))
        assert (rep.min_weight, rep.next_weight) == (4, 6)

    @pytest.mark.parametrize(
        "family,q,n,d",
        [
            ("rm", 2, 2, 1),
            ("rm", 2, 3, 2),
            ("rm", 2, 4, 3),
            ("prm", 2, 2, 2),
            ("prm", 2, 3, 3),
            ("rm", 3, 2, 2),
            ("rm", 3, 2, 3),
            ("prm", 3, 2, 2),
            ("prm", 3, 2, 3),
            ("rm", 5, 1, 2),
        ],
    )
    def test_matches_naive_oracle(self, family, q, n, d):
        code = build(CodeParams(family, q, n, d))
        assert weight_report(code).weight_counts == naive_weight_counts(code)

    @pytest.mark.parametrize("family,q,n,d", [("rm", 2, 3, 1), ("prm", 2, 3, 2), ("prm", 3, 2, 2)])
    def test_counts_sum_and_zero_multiplicity(self, family, q, n, d):
        rep = weight_report(build(CodeParams(family, q, n, d)))
        assert sum(rep.weight_counts.values()) == q**rep.dimension
        assert rep.weight_counts[0] == 1
        assert rep.next_weight is None or rep.next_weight > rep.min_weight

    def test_single_weight_code_has_no_next(self):
        # PRM(n, 1): every hyperplane complement has the same size
        rep = weight_report(build(CodeParams("prm", 2, 2, 1)))
        assert rep.weight_counts == {0: 1, 4: 7}
        assert rep.next_weight is None

    def test_first_order_rm_distribution(self):
        # order-1 binary RM has only the weights 0, 2^(n-1), 2^n
        for n in (3, 4):
            rep = weight_report(build(CodeParams("rm", 2, n, 1)))
            assert rep.weight_counts == {0: 1, 2 ** (n - 1): 2 ** (n + 1) - 2, 2**n: 1}

    def test_prm_2_2_is_even_weight_code(self):
        # [7,6] with every even weight: binomial(7, w) words of weight w
        from math import comb

        rep = weight_report(build(CodeParams("prm", 2, 2, 2)))
        assert rep.weight_counts == {w: comb(7, w) for w in (0, 2, 4, 6)}

    def test_affine_functions_gf3(self):
        # nonconstant affine maps vanish on a line (weight 6), constants on nothing
        rep = weight_report(build(CodeParams("rm", 3, 2, 1)))
        assert rep.weight_counts == {0: 1, 6: 24, 9: 2}


class TestPrimalInvariants:
    @pytest.mark.parametrize("family,q,n,d", [("prm", 2, 2, 1), ("rm", 3, 2, 1), ("rm", 3, 2, 0)])
    def test_missing_codeword_raises(self, monkeypatch, family, q, n, d):
        # a count that loses one codeword of the top weight: the zero
        # word is still counted once, but the total is one short
        counting = W._counts

        def lossy(*args):
            counts = counting(*args).copy()
            counts[np.flatnonzero(counts)[-1]] -= 1
            return counts

        monkeypatch.setattr(W, "_counts", lossy)
        code = build(CodeParams(family, q, n, d))
        k = code.dimension
        if d == 0:
            # constant code: columns 0 and 1 are dependent, counted unshortened
            match = f"weight distribution has {q**k - 1} codewords, not {q}\\^{k}"
        else:
            match = f"two-point shortened code has {q ** (k - 2) - 1} codewords, not {q}\\^{k - 2}"
        with pytest.raises(RuntimeError, match=match):
            weight_report(code)


class TestEnumerationPaths:
    def test_single_block_matches_naive(self):
        # 2^k one-word rows fit in _TABLE_BYTES: the whole message space is one table
        for family, n, d in [("rm", 3, 2), ("prm", 3, 2), ("prm", 2, 2)]:
            code = build(CodeParams(family, 2, n, d))
            assert counts_of(W._counts(code.gen, 2, 1)) == naive_weight_counts(code)

    def test_blocked_matches_naive(self, small_blocks):
        # binary RM(8,1) (N = 256, its all-ones word of weight 256) and
        # RM(3,1)/GF(7) (N = 343) have weights past uint8
        for family, q, n, d in [
            ("rm", 2, 2, 1),
            ("rm", 2, 4, 2),
            ("prm", 2, 3, 3),
            ("rm", 2, 8, 1),
            ("rm", 7, 3, 1),
        ]:
            code = build(CodeParams(family, q, n, d))
            assert counts_of(W._counts(code.gen, q, 1)) == naive_weight_counts(code)

    def test_scalar_class_matches_naive_gf3(self):
        # nonzero multiplicities are exactly (q-1) per class representative
        for family, n, d in [("rm", 2, 2), ("rm", 2, 4), ("prm", 2, 3)]:
            code = build(CodeParams(family, 3, n, d))
            rep = weight_report(code)
            assert rep.weight_counts == naive_weight_counts(code)
            assert all(
                c % 2 == 0 for w, c in rep.weight_counts.items() if w > 0
            )

    def test_partition_merge_schedule_independent(self, monkeypatch, small_blocks):
        # 1024 blocks in 1, 2 or 3 contiguous ranges, one thread each
        code = build(CodeParams("prm", 2, 3, 3))
        full = naive_weight_counts(code)
        for workers in (1, 2, 3):
            assert counts_of(W._counts(code.gen, 2, workers)) == full
        # the default, one range per CPU, on 2 blocks: at most 2 threads
        monkeypatch.setattr(W, "_TABLE_BYTES", 2 ** (code.dimension - 1) * 8)
        assert counts_of(W._counts(code.gen, 2)) == full

    def test_multiword_lengths(self, small_blocks):
        # 127 columns forces two 64-bit words per codeword
        code = build(CodeParams("prm", 2, 6, 1))
        assert counts_of(W._counts(code.gen, 2, 2)) == naive_weight_counts(code)

    def test_binary_table_capped_in_bytes(self):
        # RM(15,1): 2^16 messages of 512 words each; a block holds what
        # fits in _TABLE_BYTES, 2^8 of them, not all 2^16 (the zero
        # message is not enumerated)
        code = build(CodeParams("rm", 2, 15, 1))
        cap = W._TABLE_BYTES // (8 * (code.length // 64))
        (blocks,) = W._streams(code.gen, 2)
        sizes, tally = [], {}
        for _, w in blocks:
            sizes.append(len(w))
            for weight, c in counts_of(np.bincount(w)).items():
                tally[weight] = tally.get(weight, 0) + c
        assert sum(sizes) == 2**16 - 1
        assert max(sizes) <= cap == 2**8
        # every nonzero word has weight 2^14 but the all-ones word, 2^15
        assert tally == {2**14: 2**16 - 2, 2**15: 1}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_binary_report_memory_bounded(self):
        # RM(15,1)'s report (N = 32768) takes about 12 MB, where 2^16-row
        # tables took about 400 MB
        assert report_rss_growth_kb("rm", 2, 15, 1) < 32 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    @pytest.mark.parametrize(
        "family,q,n,d,mb",
        # a 1 MB table and one 1 MB work buffer per stream: about 1.4 and
        # 5.8 MB, where 4 MB tables took 5.6 and 20.2 MB
        [("prm", 5, 2, 3, 3), ("prm", 2, 6, 2, 12)],
    )
    def test_report_memory_follows_table_cap(self, family, q, n, d, mb):
        assert report_rss_growth_kb(family, q, n, d) < mb * 1024


class TestWitnesses:
    def test_deterministic_across_runs(self):
        code = build(CodeParams("prm", 2, 3, 2))
        assert weight_report(code).witnesses == weight_report(code).witnesses

    def test_path_independent(self, monkeypatch):
        # one table for all 2^10 messages, or 64 blocks of 16 stopped
        # once full: the same smallest messages as the full scan
        code = build(CodeParams("prm", 2, 3, 2))
        targets = [4, 6]
        expected = naive_witnesses(code, targets)
        assert W._witnesses(code.gen, 2, targets) == expected
        monkeypatch.setattr(W, "_TABLE_BYTES", 2**4 * 8)
        assert W._witnesses(code.gen, 2, targets) == expected

    def test_cap_and_weights(self):
        code = build(CodeParams("prm", 2, 3, 2))
        rep = weight_report(code)
        at_w1 = [w for w in rep.witnesses if len(w.support) == rep.min_weight]
        at_w2 = [w for w in rep.witnesses if len(w.support) == rep.next_weight]
        assert len(at_w1) == 3 and len(at_w2) == 3
        assert len(at_w1) + len(at_w2) == len(rep.witnesses)
        for wit in rep.witnesses:
            (row,) = codeword_support(code, [wit.message])
            assert tuple(np.flatnonzero(row).tolist()) == wit.support

    def test_smallest_messages_chosen(self):
        # RM(2,1) over GF(2) has exactly six weight-2 words; the three
        # witnesses must be the messages with smallest integer value
        code = build(CodeParams("rm", 2, 2, 1))
        rep = weight_report(code)
        msgs = [wit.message for wit in rep.witnesses if len(wit.support) == 2]
        assert msgs == [(1, 0, 0), (0, 1, 0), (1, 1, 0)]

    def test_qary_search_stops_in_first_slices(self, monkeypatch):
        # PRM(2,6)/GF(5), k = 25: the walk stops in the doubling slice
        # [5^5, 2*5^5) that holds 3905, the largest witness, after the
        # slices [5^j, 2*5^j) for j <= 5, 3,906 messages of the 19,531
        # in the table's seven slices
        code = build(CodeParams("prm", 5, 2, 6))
        rep = weight_report(code)
        assert (rep.min_weight, rep.next_weight) == (4, 5)
        values = {
            w: [
                sum(m * 5**i for i, m in enumerate(wit.message))
                for wit in rep.witnesses
                if len(wit.support) == w
            ]
            for w in (4, 5)
        }
        assert values == {4: [1, 5, 208], 5: [1231, 3371, 3905]}
        pool, visited = witness_visits(monkeypatch, code, [4, 5])
        assert pool == values
        assert visited <= 2 * 3905

    def test_binary_search_stops_in_first_slices(self, monkeypatch):
        # binary PRM(4,4), k = 30: every witness is a message <= 13, so the
        # search ends in the table's slice [8, 16), not after 2^20 messages
        code = build(CodeParams("prm", 2, 4, 4))
        rep = weight_report(code)
        pool, visited = witness_visits(monkeypatch, code, [rep.min_weight, rep.next_weight])
        assert max(m for ms in pool.values() for m in ms) <= 13
        assert visited <= 32

    @pytest.mark.parametrize("q,n", [(3, 3), (5, 2)])
    def test_whole_space_search_stops_in_first_slices(self, monkeypatch, q, n):
        # RM(n, n(q-1)) is all of GF(q)^N; its weight-1 and weight-2 words
        # include small messages, so the walk stops within q^3 of them
        # instead of running to the budget
        code = build(CodeParams("rm", q, n, n * (q - 1)))
        assert code.dimension == code.length
        rep = weight_report(code)
        assert (rep.min_weight, rep.next_weight) == (1, 2)
        pool, visited = witness_visits(monkeypatch, code, [1, 2])
        assert all(len(ms) == W.WITNESS_CAP for ms in pool.values())
        assert visited <= q**3

    def test_gf3_witnesses_are_class_representatives(self):
        rep = weight_report(build(CodeParams("rm", 3, 2, 1)))
        for wit in rep.witnesses:
            last_nonzero = next(v for v in reversed(wit.message) if v)
            assert last_nonzero == 1


class TestBasisInvariance:
    @pytest.mark.parametrize("q", [2, 3])
    def test_distribution_survives_basis_change(self, q):
        # scramble the generator by a random invertible matrix: the row
        # space, hence the distribution, must not move
        from prmw.codes import Code, rref
        from prmw.gfp import GF

        code = build(CodeParams("prm", q, 2, 2))
        rng = np.random.default_rng(11)
        dim = code.dimension
        while True:
            t = rng.integers(0, q, size=(dim, dim))
            _, rank, _ = rref(t, GF(q))
            if rank == dim:
                break
        scrambled = Code(code.params, (t @ code.gen) % q, code.basis_monomials)
        assert naive_weight_counts(scrambled) == weight_report(code).weight_counts


def krawtchouk(j, i, length, q):
    from math import comb

    return sum(
        (-1) ** k * (q - 1) ** (j - k) * comb(i, k) * comb(length - i, j - k)
        for k in range(max(0, j - (length - i)), min(i, j) + 1)
    )


class TestMacWilliams:
    # the dual distribution computed by enumerating the kernel must equal
    # the MacWilliams transform of the primal one: an oracle that is
    # independent of both the closed forms and the enumeration order

    @pytest.mark.parametrize(
        "family,q,n,d",
        [("prm", 2, 2, 2), ("rm", 2, 3, 1), ("prm", 3, 2, 2), ("rm", 3, 2, 1)],
    )
    def test_dual_distribution(self, family, q, n, d):
        from prmw.codes import Code, nullspace
        from prmw.gfp import GF

        code = build(CodeParams(family, q, n, d))
        counts = weight_report(code).weight_counts
        length = code.length
        dual_gen = nullspace(code.gen, GF(q))
        dual = Code(code.params, dual_gen, code.basis_monomials)
        dual_counts = naive_weight_counts(dual, limit=1 << 20)
        size = q**code.dimension
        for j in range(length + 1):
            transformed = (
                sum(
                    counts.get(i, 0) * krawtchouk(j, i, length, q)
                    for i in range(length + 1)
                )
                // size
            )
            assert dual_counts.get(j, 0) == transformed


class TestProjectiveVsAffineNextWeight:
    def test_upper_bound_across_binary_grid(self, reports):
        # the lift argument forces W2 of the projective code at or below
        # the affine W2 at one degree less; equality fails exactly at the
        # quadric case d=2, n>=3
        from prmw import w2_rm_binary

        for n in (2, 3):
            for d in range(2, n + 1):
                _, rep = reports("prm", 2, n, d)
                bound = w2_rm_binary(n, d - 1)
                assert rep.next_weight <= bound
                if d == 2 and n >= 3:
                    assert rep.next_weight < bound


class TestSupports:
    def test_zero_message(self):
        code = build(CodeParams("prm", 2, 2, 2))
        assert codeword_support(code, [[0] * 6]).tolist() == [[False] * code.length]

    def test_single_row(self):
        code = build(CodeParams("prm", 2, 2, 2))
        msg = [1] + [0] * 5
        expected = tuple(int(i) for i in np.nonzero(code.gen[0])[0])
        (row,) = codeword_support(code, [msg])
        assert tuple(np.flatnonzero(row).tolist()) == expected

    def test_length_mismatch(self):
        code = build(CodeParams("prm", 2, 2, 2))
        with pytest.raises(DomainError):
            codeword_support(code, [[1, 0]])

    def test_empty_batch(self):
        code = build(CodeParams("prm", 3, 2, 2))
        empty = codeword_support(code, np.zeros((0, code.dimension), dtype=np.int64))
        assert empty.shape == (0, code.length)

    def test_one_message_not_a_batch(self):
        code = build(CodeParams("prm", 2, 2, 2))
        with pytest.raises(DomainError):
            codeword_support(code, [1, 0, 0, 0, 0, 0])
        with pytest.raises(DomainError):
            codeword_support(code, np.zeros((1, 1, 6), dtype=np.int64))

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.data())
    def test_batch_matches_per_row_product(self, data):
        # every field size, lengths up to 16, random batches against one
        # (m @ gen) % q product per row
        family, q, n, d = data.draw(st.sampled_from(SMALL_CODES))
        code = build(CodeParams(family, q, n, d))
        rows = data.draw(st.integers(0, 12))
        digits = st.integers(0, q - 1)
        msgs = data.draw(
            st.lists(st.lists(digits, min_size=code.dimension, max_size=code.dimension),
                     min_size=rows, max_size=rows)
        )
        batch = np.array(msgs, dtype=np.int64).reshape(rows, code.dimension)
        expected = [
            tuple(j for j, v in enumerate(((np.array(m) @ code.gen) % q).tolist()) if v)
            for m in msgs
        ]
        supports = codeword_support(code, batch)
        assert supports.shape == (rows, code.length)
        assert [tuple(np.flatnonzero(row).tolist()) for row in supports] == expected

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_float_product_matches_int64_reference(self, q):
        # random messages, some outside [0, q), and the all-(q-1) message,
        # whose sums are the largest, against (msgs @ gen) % q in int64
        code = build(CodeParams("prm", q, 2, 3))
        rng = np.random.default_rng(q)
        msgs = rng.integers(-3 * q, 3 * q, size=(50, code.dimension))
        msgs = np.vstack([msgs, np.full((1, code.dimension), q - 1)])
        expected = (msgs % q) @ code.gen.astype(np.int64) % q != 0
        assert np.array_equal(codeword_support(code, msgs), expected)
        assert np.array_equal(codeword_support(code, (msgs % q).astype(np.uint8)), expected)

    def test_inexact_float_product_refused(self):
        # k (q-1)^2 reaching 2^24 would not be exact in float32
        k = 2**24 // 144 + 1
        code = Code(CodeParams("prm", 13, 2, 2), np.zeros((k, 1), dtype=np.uint8), ())
        with pytest.raises(RuntimeError, match="not exact in float32"):
            codeword_support(code, np.zeros((1, k), dtype=np.uint8))

    def test_report_collects_witness_supports_once(self, monkeypatch):
        calls = []
        real = W.codeword_support

        def counted(code, messages):
            calls.append(len(messages))
            return real(code, messages)

        monkeypatch.setattr(W, "codeword_support", counted)
        rep = weight_report(build(CodeParams("prm", 3, 2, 2)))
        assert calls == [len(rep.witnesses)]


# (family, q, n, d) with length <= 16 over every supported field
SMALL_CODES = [
    ("prm", 2, 3, 2), ("rm", 2, 4, 2), ("prm", 2, 2, 3),
    ("prm", 3, 2, 2), ("rm", 3, 2, 3),
    ("prm", 5, 1, 3), ("rm", 5, 1, 2),
    ("prm", 7, 1, 4),
    ("prm", 11, 1, 5), ("rm", 11, 1, 7),
    ("prm", 13, 1, 6), ("rm", 13, 1, 12),
]


class TestBudget:
    def test_exceeded_names_required_budget(self):
        # binary RM(5,2), k = 16 = N - k: its primal side shortened on two
        # points counts 2^14 messages
        code = build(CodeParams("rm", 2, 5, 2))
        with pytest.raises(BudgetExceeded, match=f"needs budget {2**14}"):
            weight_report(code, budget=2**10)

    def test_refused_before_the_shortening_product(self):
        # the count's dimension is read from the shortened basis, so the
        # product that would build the counted generator is never formed
        class NoProduct(np.ndarray):
            def __rmatmul__(self, other):
                raise AssertionError("shortening product formed before the budget check")

        code = build(CodeParams("rm", 2, 5, 2))
        code = Code(code.params, code.gen.view(NoProduct), code.basis_monomials)
        with pytest.raises(BudgetExceeded, match=f"needs budget {2**14}"):
            weight_report(code, budget=2**10)

    def test_dual_row_refused_before_the_dual_is_computed(self, monkeypatch):
        # binary RM(5,3), k = 26 of N = 32: the count would take the dual
        # side, of dimension 6, shortened on two points to 2^4 messages
        def unreachable(*args):
            raise AssertionError("nullspace computed before the budget check")

        code = build(CodeParams("rm", 2, 5, 3))
        monkeypatch.setattr(W, "nullspace", unreachable)
        with pytest.raises(BudgetExceeded, match=f"needs budget {2**4}, budget is 8"):
            weight_report(code, budget=8)

    def test_witness_search_bounded(self):
        # PRM(2,6)/GF(5), k = 25: its count visits 157 messages, its
        # witness search 3,906
        code = build(CodeParams("prm", 5, 2, 6))
        assert weight_report(code).codewords_scanned == 157
        with pytest.raises(BudgetExceeded, match="witness search .* past budget 1000"):
            weight_report(code, budget=1000)

    def test_budget_caps_the_count_not_q_to_the_k(self):
        # q^k is far above the default budget, the messages counted are not
        for family, q, n, d, w1, a1, w2, a2 in [
            ("prm", 5, 2, 5, 5, 744, 8, 46_500),
            ("prm", 5, 2, 6, 4, 1_860, 5, 744),
            ("prm", 3, 3, 4, 6, 6_240, 8, 136_890),
            ("rm", 3, 3, 4, 3, 234, 4, 4_212),
        ]:
            code = build(CodeParams(family, q, n, d))
            assert q**code.dimension > W.DEFAULT_BUDGET
            rep = weight_report(code)
            counts = rep.weight_counts
            assert (rep.min_weight, counts[w1], rep.next_weight, counts[w2]) == (w1, a1, w2, a2)

    def test_naive_oracle_budget(self):
        code = build(CodeParams("prm", 2, 4, 3))
        with pytest.raises(BudgetExceeded):
            naive_weight_counts(code)


class TestJson:
    def test_schema_fields_exact(self):
        rep = weight_report(build(CodeParams("rm", 2, 2, 1)))
        doc = json.loads(report_to_json(rep))
        assert set(doc) == {
            "family",
            "q",
            "n",
            "d",
            "length",
            "dimension",
            "w1",
            "w2",
            "counts",
            "witnesses",
            "scanned",
            "side",
            "transform",
            "elapsed_ms",
        }
        assert doc["counts"] == {"0": 1, "2": 6, "4": 1}
        assert doc["w1"] == 2 and doc["w2"] == 4
        assert all(set(w) == {"message", "support"} for w in doc["witnesses"])

    def test_w2_null_when_absent(self):
        rep = weight_report(build(CodeParams("prm", 2, 2, 1)))
        assert json.loads(report_to_json(rep))["w2"] is None

    def test_deterministic_modulo_elapsed(self):
        code = build(CodeParams("prm", 2, 3, 2))
        docs = []
        for _ in range(2):
            doc = json.loads(report_to_json(weight_report(code)))
            doc.pop("elapsed_ms")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_scanned_counts_physical_enumeration(self):
        # [15,10] binary code: its [15,5] dual is counted, shortened on two
        # points to its 2^3 words
        rep2 = weight_report(build(CodeParams("prm", 2, 3, 2)))
        assert (rep2.side, rep2.transform) == ("dual", "two-point+macwilliams")
        assert rep2.codewords_scanned == 2**3
        # [9,3] code over GF(3): its shortened [9,1] subcode, in classes
        rep3 = weight_report(build(CodeParams("rm", 3, 2, 1)))
        assert (rep3.side, rep3.transform) == ("primal", "two-point")
        assert rep3.codewords_scanned == (3**1 - 1) // 2 + 1
