import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prmw.codes
from prmw import (
    GF,
    BudgetExceeded,
    CodeParams,
    DomainError,
    affine_points,
    build,
    build_prm,
    build_rm,
    code_to_bitdump,
    code_to_json,
    projective_points,
    rref,
    weight_report,
)
from prmw.codes import (
    Code,
    _eliminate,
    bitdump_to_rows,
    evaluate_monomials,
    homogeneous_monomials,
    nullspace,
    pack_bits,
    rm_monomials,
)
from prmw.gfp import SUPPORTED_PRIMES
from prmw.points import POINT_ORDER_VERSION


# -- reference eliminations, kept independent of the code under test ------


def greedy_oracle(mat, q):
    """Row-at-a-time greedy elimination: each row is reduced against the
    rows kept so far and kept if still nonzero; returns (kept indices,
    pivot columns ascending, kept reduced rows sorted by pivot)."""
    mat = np.asarray(mat, dtype=np.int64) % q
    kept, reduced = [], []
    for i, raw in enumerate(mat):
        row = raw.copy()
        for pc, prow in reduced:
            if row[pc]:
                row = (row - row[pc] * prow) % q
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        pc = int(nz[0])
        row = (row * pow(int(row[pc]), -1, q)) % q
        for j, (opc, orow) in enumerate(reduced):
            if orow[pc]:
                reduced[j] = (opc, (orow - orow[pc] * row) % q)
        reduced.append((pc, row))
        kept.append(i)
    reduced.sort(key=lambda t: t[0])
    rows = np.array([r for _, r in reduced], dtype=np.int64).reshape(len(reduced), mat.shape[1])
    return kept, [pc for pc, _ in reduced], rows


def rref_oracle(mat, q):
    """Column-pivot Gauss-Jordan: (reduced matrix, rank, pivot columns)."""
    m = np.array(mat, dtype=np.int64) % q
    if m.size == 0:
        return m, 0, []
    rows, cols = m.shape
    pivots, r = [], 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = nz[0] + r
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, q)) % q
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % q
        pivots.append(c)
        r += 1
    return m, len(pivots), pivots


def nullspace_oracle(mat, q):
    red, _, pivots = rref_oracle(mat, q)
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-red[r, fc]) % q
    return basis


@st.composite
def planted_matrices(draw):
    """(matrix, q): random residues with planted zero rows, duplicate rows
    and linear combinations of earlier rows; 1xN, Mx1 and M > N shapes,
    and binary lengths past one 64-bit word."""
    q = draw(st.sampled_from(SUPPORTED_PRIMES))
    rows = draw(st.integers(1, 12))
    cols = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, q, size=(rows, cols))
    for i in range(1, rows):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "combination"]))
        if kind == "zero":
            m[i] = 0
        elif kind == "duplicate":
            m[i] = m[rng.integers(0, i)]
        elif kind == "combination":
            m[i] = rng.integers(0, q, size=i) @ m[:i] % q
    return m, q


class TestRref:
    def test_gf2_full_rank(self):
        red, rank, pivots = rref([[1, 1], [1, 0]], GF(2))
        assert red.tolist() == [[1, 0], [0, 1]]
        assert rank == 2 and pivots == [0, 1]

    def test_gf3_dependent_rows(self):
        red, rank, pivots = rref([[1, 1], [2, 2]], GF(3))
        assert red.tolist() == [[1, 1], [0, 0]]
        assert rank == 1 and pivots == [0]

    def test_zero_matrix(self):
        _, rank, pivots = rref(np.zeros((3, 3), dtype=int), GF(2))
        assert rank == 0 and pivots == []

    def test_idempotent_and_input_preserved(self):
        m = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        keep = m.copy()
        red, rank, _ = rref(m, GF(3))
        assert np.array_equal(m, keep)
        red2, rank2, _ = rref(red, GF(3))
        assert np.array_equal(red, red2) and rank == rank2

    def test_rank_invariant_under_row_shuffle(self):
        rng = np.random.default_rng(7)
        m = rng.integers(0, 5, size=(6, 9))
        _, rank, _ = rref(m, GF(5))
        for _ in range(5):
            _, r2, _ = rref(m[rng.permutation(6)], GF(5))
            assert r2 == rank


class TestEliminate:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(planted_matrices())
    def test_matches_reference_eliminations(self, case):
        m, q = case
        keep = m.copy()
        rows, pivots, kept = _eliminate(m, q)
        ref_kept, ref_pivots, ref_rows = greedy_oracle(m, q)
        assert kept == ref_kept and pivots == ref_pivots
        assert rows.dtype == np.uint8 and np.array_equal(rows, ref_rows)
        red, rank, piv = rref(m, GF(q))
        ref_red, ref_rank, ref_piv = rref_oracle(m, q)
        assert red.dtype == np.int64 and np.array_equal(red, ref_red)
        assert (rank, piv) == (ref_rank, ref_piv)
        ns = nullspace(m, GF(q))
        assert ns.dtype == np.int64 and np.array_equal(ns, nullspace_oracle(m, q))
        assert np.array_equal(m, keep)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    @pytest.mark.parametrize("q", [2, 5])
    def test_empty_matrix(self, shape, q):
        red, rank, pivots = rref(np.zeros(shape, dtype=np.int64), GF(q))
        assert red.shape == shape and red.dtype == np.int64
        assert rank == 0 and pivots == []

    def test_uint8_bound_raises(self):
        # (q - 1) + (q - 1)^2 must fit a uint8 row
        with pytest.raises(DomainError):
            _eliminate(np.ones((2, 3), dtype=np.int64), 17)


class TestNullspaceInverse:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_nullspace_annihilates(self, q):
        rng = np.random.default_rng(q)
        m = rng.integers(0, q, size=(3, 6))
        ns = nullspace(m, GF(q))
        _, rank, _ = rref(m, GF(q))
        assert ns.shape[0] == 6 - rank
        assert not ((m @ ns.T) % q).any()
        _, nsrank, _ = rref(ns, GF(q))
        assert nsrank == ns.shape[0]


class TestCodeParams:
    @pytest.mark.parametrize(
        "family,q,n,d",
        [("rm", 2, 2, -1), ("rm", 2, 2, 3), ("prm", 2, 2, 0), ("prm", 2, 2, 4), ("rm", 4, 2, 1), ("bad", 2, 2, 1), ("rm", 2, 0, 1)],
    )
    def test_invalid_params(self, family, q, n, d):
        with pytest.raises(DomainError):
            CodeParams(family, q, n, d)

    def test_non_int_q_named(self):
        # a numpy integer is prime but not an int: the message says so
        for make in (lambda: GF(np.int64(3)), lambda: CodeParams("prm", np.int64(3), 2, 2)):
            with pytest.raises(DomainError, match="must be an int, not int64"):
                make()


class TestBuildRm:
    def test_rm_2_1_gf2(self):
        code = build_rm(CodeParams("rm", 2, 2, 1))
        assert (code.length, code.dimension) == (4, 3)
        assert code.basis_monomials == ((0, 0), (0, 1), (1, 0))

    def test_rm_full_space(self):
        # d >= n(q-1) fills the whole ambient space
        code = build_rm(CodeParams("rm", 2, 2, 2))
        assert (code.length, code.dimension) == (4, 4)

    def test_rm_2_2_gf3(self):
        code = build_rm(CodeParams("rm", 3, 2, 2))
        assert (code.length, code.dimension) == (9, 6)
        assert len(rm_monomials(2, 2, 3)) == 6

    @pytest.mark.parametrize("q,n,dmax", [(2, 3, 3), (3, 2, 4)])
    def test_reduced_basis_injective(self, q, n, dmax):
        # dimension always equals the reduced monomial count
        for d in range(0, dmax + 1):
            code = build_rm(CodeParams("rm", q, n, d))
            assert code.dimension == len(rm_monomials(n, d, q))

    def test_family_mismatch(self):
        with pytest.raises(DomainError):
            build_rm(CodeParams("prm", 2, 2, 2))


CONSTRUCTION_CASES = [
    ("rm", 2, 12, 4),
    ("prm", 2, 9, 4),
    ("rm", 3, 6, 6),
    ("rm", 5, 4, 6),
    ("prm", 7, 3, 6),
    ("prm", 13, 2, 5),
    ("prm", 11, 2, 3),
    ("rm", 13, 1, 3),
    ("prm", 2, 1, 1),
    ("rm", 3, 3, 0),
    ("rm", 2, 4, 0),
]


def bounded_compositions(total, parts, bound):
    """Recursive oracle for rm_monomials: the vectors of ``parts``
    entries in [0, bound] summing to ``total``."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(min(total, bound), -1, -1):
        for rest in bounded_compositions(total - first, parts - 1, bound):
            out.append((first,) + rest)
    return out


@pytest.mark.parametrize("q", SUPPORTED_PRIMES)
def test_rm_monomials_graded_lex(q):
    for n in range(1, 5):
        for d in sorted({0, 1, q - 1, q, n * (q - 1) - 1, n * (q - 1)} - {-1}):
            expected = [e for deg in range(d + 1) for e in sorted(bounded_compositions(deg, n, q - 1))]
            assert rm_monomials(n, d, q) == expected


class TestConstruction:
    @pytest.mark.parametrize("family,q,n,d", CONSTRUCTION_CASES)
    def test_matches_row_at_a_time_greedy(self, family, q, n, d):
        code = build(CodeParams(family, q, n, d))
        monos = rm_monomials(n, d, q) if family == "rm" else homogeneous_monomials(n + 1, d)
        pts = affine_points(n, GF(q)) if family == "rm" else projective_points(n, GF(q))
        kept, _, rows = greedy_oracle(evaluate_monomials(monos, np.array(pts, dtype=np.int64), q), q)
        assert code.gen.dtype == np.uint8 and np.array_equal(code.gen, rows)
        assert code.basis_monomials == tuple(monos[i] for i in kept)

    def test_rm_dropped_row_raises(self, monkeypatch):
        eliminate = prmw.codes._eliminate

        def drop_last(mat, q):
            rows, pivots, kept = eliminate(mat, q)
            return rows[:-1], pivots[:-1], kept[:-1]

        monkeypatch.setattr(prmw.codes, "_eliminate", drop_last)
        with pytest.raises(RuntimeError):
            build_rm(CodeParams("rm", 3, 2, 2))


class TestEntryCap:
    def test_refused_before_points_are_listed(self, monkeypatch):
        # binary RM(20,5) would evaluate 21,700 monomials at 2^20 points,
        # 22.7 GB as uint8: refused from the two counts alone
        def unreachable(*args):
            raise AssertionError("points listed before the entry cap was checked")

        monkeypatch.setattr(prmw.codes, "affine_array", unreachable)
        with pytest.raises(BudgetExceeded, match=f"needs {21_700 * 2**20} entries, cap is {2**26}"):
            build(CodeParams("rm", 2, 20, 5))

    @pytest.mark.parametrize(
        "family,q,n,d,entries",
        [("rm", 2, 4, 2, 11 * 16), ("prm", 2, 3, 3, 20 * 15), ("prm", 3, 2, 2, 6 * 13)],
    )
    def test_cap_bounds_monomials_times_points(self, monkeypatch, family, q, n, d, entries):
        params = CodeParams(family, q, n, d)
        monkeypatch.setattr(prmw.codes, "ENTRY_CAP", entries)
        build(params)
        monkeypatch.setattr(prmw.codes, "ENTRY_CAP", entries - 1)
        with pytest.raises(BudgetExceeded, match=f"needs {entries} entries, cap is {entries - 1}"):
            build(params)


def span_size(code):
    """Independent oracle for the dimension: count distinct codewords."""
    q = code.params.q
    seen = {tuple([0] * code.length)}
    frontier = [np.zeros(code.length, dtype=np.int64)]
    for row in code.gen:
        new = []
        for v in frontier:
            for s in range(1, q):
                w = (v + s * row) % q
                t = tuple(w.tolist())
                if t not in seen:
                    seen.add(t)
                    new.append(w)
        frontier.extend(new)
    return len(seen)


class TestEvaluateMonomials:
    @pytest.mark.parametrize("family,q,n,d", [("rm", 13, 2, 24), ("prm", 5, 2, 9), ("prm", 2, 3, 4)])
    def test_matches_pointwise_powers(self, family, q, n, d):
        # exponents up to 12 and degree above q, against x^e mod q per cell
        monos = rm_monomials(n, d, q) if family == "rm" else homogeneous_monomials(n + 1, d)
        pts = affine_points(n, GF(q)) if family == "rm" else projective_points(n, GF(q))
        got = evaluate_monomials(monos, np.array(pts, dtype=np.int64), q)
        assert got.dtype == np.uint8
        expected = [[int(np.prod([pow(x, e, q) for x, e in zip(p, m)])) % q for p in pts] for m in monos]
        assert got.tolist() == expected

    @pytest.mark.parametrize("q", SUPPORTED_PRIMES)
    def test_zero_coordinates_and_top_exponents(self, q):
        # exponents 0 and q-1 in every mix, at every point of P^2, whose
        # zero coordinates must give 0^0 = 1 and 0^e = 0
        exps = list(product([0, 1, q - 1], repeat=3))
        pts = projective_points(2, GF(q))
        got = evaluate_monomials(exps, np.array(pts), q)
        expected = [[pow(x, a, q) * pow(y, b, q) * pow(z, c, q) % q for x, y, z in pts] for a, b, c in exps]
        assert got.tolist() == expected

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
    def test_exponents_far_above_q(self, q):
        # exponents past any power table's rows, and one past int64
        exps = [(10**6 + 1, 0), (q, 2 * q - 1), (10**6, 3), (0, 2**70 + 5), (q - 1, 1)]
        pts = affine_points(2, GF(q))
        got = evaluate_monomials(exps, np.array(pts, dtype=np.int64), q)
        expected = [[pow(x, a, q) * pow(y, b, q) % q for x, y in pts] for a, b in exps]
        assert got.tolist() == expected


class TestBuildPrm:
    def test_prm_2_2_gf2(self):
        code = build_prm(CodeParams("prm", 2, 2, 2))
        assert (code.length, code.dimension) == (7, 6)
        assert span_size(code) == 2**6

    def test_prm_3_2_gf2(self):
        code = build_prm(CodeParams("prm", 2, 3, 2))
        assert (code.length, code.dimension) == (15, 10)

    def test_prm_kernel_nontrivial_gf3(self):
        # degree-(q+1) relations enter the kernel for d = 5 over GF(3)
        code = build_prm(CodeParams("prm", 3, 2, 5))
        assert code.dimension < len(homogeneous_monomials(3, 5))

    def test_full_space_past_range(self):
        code = build_prm(CodeParams("prm", 2, 2, 3))
        assert code.dimension == code.length == 7

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
    def test_ideal_generators_vanish(self, q, n):
        # X_j^q X_i - X_i^q X_j vanishes at every standard point
        gf = GF(q)
        pts = projective_points(n, gf)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                for p in pts:
                    v = (pow(p[j], q, q) * p[i] - pow(p[i], q, q) * p[j]) % q
                    assert v == 0

    def test_column_point_correspondence(self):
        code = build_prm(CodeParams("prm", 2, 2, 2))
        pts = projective_points(2, GF(2))
        assert code.length == len(pts)
        # each basis monomial's evaluation lies in the row space
        for mono in code.basis_monomials:
            row = [
                int(np.prod([c**e for c, e in zip(p, mono)])) % 2
                for p in pts
            ]
            stacked = np.vstack([code.gen, row])
            _, rank, _ = rref(stacked, GF(2))
            assert rank == code.dimension

    def test_dimension_invariant_under_monomial_order(self):
        code = build_prm(CodeParams("prm", 2, 3, 2))
        rng = np.random.default_rng(3)
        monos = homogeneous_monomials(4, 2)
        pts = projective_points(3, GF(2))
        rows = []
        for e in monos:
            rows.append([int(np.prod([c**x for c, x in zip(p, e)])) % 2 for p in pts])
        rows = np.array(rows)
        for _ in range(3):
            _, rank, _ = rref(rows[rng.permutation(len(monos))], GF(2))
            assert rank == code.dimension


class TestShortenedRm:
    # binary PRM(n, d) is RM(n+1, d) shortened at the origin: the
    # codewords vanishing there, with that coordinate dropped

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generator_is_rm_without_origin(self, n):
        # the RREF is unique and the origin is the first affine point
        for d in range(1, n + 2):
            prm = build(CodeParams("prm", 2, n, d))
            rm = build(CodeParams("rm", 2, n + 1, d))
            assert np.array_equal(prm.gen, rm.gen[1:, 1:])

    def test_weight_counts_from_rm(self):
        # RM(n+1, d)'s affine group is transitive on points, so a
        # weight-w codeword misses the origin in (2^(n+1) - w)/2^(n+1)
        # of the cases
        for n in range(2, 6):
            for d in range(2, n + 1):
                prm = weight_report(build(CodeParams("prm", 2, n, d))).weight_counts
                rm = weight_report(build(CodeParams("rm", 2, n + 1, d))).weight_counts
                for w in set(prm) | set(rm):
                    assert prm.get(w, 0) * 2 ** (n + 1) == rm.get(w, 0) * (2 ** (n + 1) - w)


class TestSerialization:
    def test_json_schema(self):
        code = build(CodeParams("prm", 2, 2, 2))
        doc = json.loads(code_to_json(code))
        assert doc["family"] == "prm" and doc["q"] == 2
        assert doc["length"] == 7 and doc["dimension"] == 6
        assert doc["point_order"] == POINT_ORDER_VERSION
        assert len(doc["rows"]) == 6 and all(len(r) == 7 for r in doc["rows"])
        assert doc["rows"] == code.gen.tolist()

    def test_bitdump_round_trip(self):
        code = build(CodeParams("prm", 2, 3, 2))
        blob = code_to_bitdump(code)
        meta, rows = bitdump_to_rows(blob)
        assert meta["point-order"] == POINT_ORDER_VERSION
        assert rows == code.gen.tolist()

    def test_bitdump_multiword(self):
        code = build(CodeParams("prm", 2, 6, 2))  # length 127, two words per row
        _, rows = bitdump_to_rows(code_to_bitdump(code))
        assert rows == code.gen.tolist()

    @pytest.mark.parametrize(
        "family,n,d", [("prm", 2, 2), ("rm", 6, 2), ("prm", 6, 2), ("rm", 7, 2), ("prm", 7, 3)]
    )
    def test_bitdump_bytes_match_per_cell_packing(self, family, n, d):
        # lengths 7, 64, 127, 128, 255: one word, exactly one, a partial
        # second, exactly two, and a partial fourth
        code = build(CodeParams(family, 2, n, d))
        words = (code.length + 63) // 64
        body = b"".join(
            sum(1 << j for j, v in enumerate(row) if v).to_bytes(8 * words, "little")
            for row in code.gen.tolist()
        )
        blob = code_to_bitdump(code)
        assert blob[blob.index(b"\n") + 1 :] == body

    def test_pack_bits_words(self):
        rng = np.random.default_rng(3)
        for rows, length in [(5, 130), (1, 1), (3, 64), (0, 70)]:
            gen = rng.integers(0, 2, size=(rows, length))
            words = pack_bits(gen)
            assert words.shape == (rows, (length + 63) // 64)
            for row, packed in zip(gen.tolist(), words.tolist()):
                x = sum(1 << j for j, v in enumerate(row) if v)
                assert packed == [(x >> (64 * w)) & (2**64 - 1) for w in range(len(packed))]

    def test_bitdump_requires_gf2(self):
        code = build(CodeParams("prm", 3, 2, 2))
        with pytest.raises(DomainError):
            code_to_bitdump(code)

    @pytest.mark.parametrize("q", SUPPORTED_PRIMES)
    def test_json_matches_json_dumps(self, q):
        # one- and two-digit cells, a 1xN and a kx1 matrix beside the
        # code's own generator
        code = build(CodeParams("prm", q, 2, 3))
        rng = np.random.default_rng(q)
        gens = [code.gen, rng.integers(0, q, size=(1, 40)), rng.integers(0, q, size=(9, 1))]
        gens.append(np.arange(q).reshape(1, q))
        for gen in gens:
            other = Code(code.params, gen, code.basis_monomials)
            doc = {
                "family": "prm",
                "q": q,
                "n": 2,
                "d": 3,
                "length": gen.shape[1],
                "dimension": gen.shape[0],
                "point_order": POINT_ORDER_VERSION,
                "basis_monomials": [list(e) for e in code.basis_monomials],
                "rows": gen.tolist(),
            }
            assert code_to_json(other) == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_json_deterministic(self):
        code1 = build(CodeParams("rm", 3, 2, 2))
        code2 = build(CodeParams("rm", 3, 2, 2))
        assert code_to_json(code1) == code_to_json(code2)
