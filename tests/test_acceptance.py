"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass/fail line each (run with -s to see the lines).

The largest instances (PRM(4,4) with 2^30 codewords, RM(5,4) with
2^31) are counted through their duals; reports are shared through the
session-scoped report cache.
"""

from itertools import product

import numpy as np

from prmw import (
    GF,
    CodeParams,
    build,
    check_subspace_bounds,
    codeword_support,
    find_avoiding_subspace,
    find_avoiding_subspace_at_least,
    naive_weight_counts,
    parse_poly,
    projective_support,
    w1_prm,
    w1_rm,
    w2_prm_binary,
    w2_rm_binary,
    w2_rm_candidates,
    weight_report,
    zero_set_is_hyperplane_union,
)
from prmw.poly import Poly

gf2 = GF(2)
gf3 = GF(3)


def report_line(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}")
    for f in failures:
        print(f"              {f}")
    assert not failures, failures


def all_nonzero_codeword_supports(code):
    dim, q = code.dimension, code.params.q
    total = q**dim
    msgs = np.zeros((total, dim), dtype=np.int64)
    rem = np.arange(total, dtype=np.int64)
    for j in range(dim):
        msgs[:, j] = rem % q
        rem //= q
    rows = codeword_support(code, msgs[1:])
    return msgs[1:], [tuple(np.flatnonzero(row).tolist()) for row in rows]


# (W1, A_W1, W2, A_W2) of binary PRM(n, d) out to where exhaustive
# counting reaches in about a second; PRM(6,3), PRM(7,2..5) and
# PRM(8,2..6) are past it
BINARY_PRM_FRONTIER = {
    (5, 2): (16, 1953, 24, 182280),
    (5, 3): (8, 9765, 12, 1421784),
    (5, 4): (4, 9765, 6, 1057224),
    (5, 5): (2, 1953, 4, 595665),
    (6, 2): (32, 8001, 48, 3307080),
    (6, 4): (8, 177165, 12, 134267448),
    (6, 5): (4, 82677, 6, 40346376),
    (6, 6): (2, 8001, 4, 10334625),
    (7, 6): (4, 680085, 6, 1405509000),
    (7, 7): (2, 32385, 4, 172061505),
    (8, 7): (4, 5516245, 6, 46892495496),
    (8, 8): (2, 130305, 4, 2807768705),
}


def test_criterion_1_binary_prm_grid(reports):
    # exhaustive W1/W2 of PRM(n,d) match the closed forms for the full
    # binary grid n in {2,3,4}, 2 <= d <= n, and for the frontier rows,
    # whose multiplicities A_W1 and A_W2 are frozen too
    failures, dims = [], []
    grid = [(n, d) for n in (2, 3, 4) for d in range(2, n + 1)] + list(BINARY_PRM_FRONTIER)
    for n, d in grid:
        _, rep = reports("prm", 2, n, d)
        dims.append(f"PRM({n},{d}):dim={rep.dimension}")
        exp = (w1_rm(n, d - 1, 2), w2_prm_binary(n, d))
        got = (rep.min_weight, rep.next_weight)
        if got != exp:
            failures.append(f"PRM({n},{d}): got w1,w2={got}, expected {exp}")
        if (n, d) in BINARY_PRM_FRONTIER:
            frozen = BINARY_PRM_FRONTIER[n, d]
            got = tuple(x for w in got for x in (w, rep.weight_counts[w]))
            if got != frozen:
                failures.append(f"PRM({n},{d}): got w1,A,w2,A={got}, frozen {frozen}")
    report_line(1, "binary PRM W1/W2 vs closed forms; " + " ".join(dims), failures)


def test_criterion_2_strict_inequality(reports):
    failures = []
    for n, expected in ((3, 6), (4, 12), (5, 24), (6, 48)):
        _, rep = reports("prm", 2, n, 2)
        if rep.next_weight != expected:
            failures.append(f"PRM({n},2): w2={rep.next_weight}, expected {expected}")
        if not rep.next_weight < 2**n == w2_rm_binary(n, 1):
            failures.append(f"PRM({n},2): w2={rep.next_weight} not < 2^{n}")
    report_line(
        2, "quadric case is strictly below the affine value (6<8, 12<16, 24<32, 48<64)", failures
    )


def test_criterion_3_binary_rm_table(reports):
    failures = []
    for n in range(2, 6):
        for e in range(1, n):
            _, rep = reports("rm", 2, n, e)
            exp = (w1_rm(n, e, 2), w2_rm_binary(n, e))
            got = (rep.min_weight, rep.next_weight)
            if got != exp:
                failures.append(f"RM({n},{e}): got w1,w2={got}, expected {exp}")
    report_line(3, "binary RM W1/W2 vs closed forms, n in 2..5, e in 1..n-1", failures)


# (W1, A_W1, W2, A_W2) of every q >= 3 PRM(n, d), n >= 2, whose report
# takes under about 0.2 s, keyed (q, n, d)
QARY_PRM_FIXTURE = {
    (3, 2, 2): (6, 156, 9, 494),
    (3, 2, 3): (3, 104, 4, 468),
    (3, 2, 4): (2, 156, 3, 572),
    (3, 2, 5): (1, 26, 2, 312),
    (3, 3, 2): (18, 1560, 24, 21060),
    (3, 3, 4): (6, 6240, 8, 136890),
    (3, 3, 5): (3, 1040, 4, 18720),
    (3, 3, 6): (2, 1560, 3, 19760),
    (3, 3, 7): (1, 80, 2, 3120),
    (3, 4, 2): (54, 14520, 72, 2548260),
    (3, 4, 6): (6, 188760, 8, 16563690),
    (3, 4, 7): (3, 9680, 4, 566280),
    (3, 4, 8): (2, 14520, 3, 575960),
    (3, 4, 9): (1, 242, 2, 29040),
    (3, 5, 9): (3, 88088, 4, 15855840),
    (3, 5, 10): (2, 132132, 3, 15943928),
    (3, 5, 11): (1, 728, 2, 264264),
    (5, 2, 2): (20, 1860, 25, 12524),
    (5, 2, 3): (15, 2480, 16, 15500),
    (5, 2, 5): (5, 744, 8, 46500),
    (5, 2, 6): (4, 1860, 5, 744),
    (5, 2, 7): (3, 2480, 4, 65720),
    (5, 2, 8): (2, 1860, 3, 53940),
    (5, 2, 9): (1, 124, 2, 7440),
    (5, 3, 2): (100, 48360, 120, 4030000),
    (5, 3, 10): (4, 48360, 5, 19344),
    (5, 3, 11): (3, 64480, 4, 9768720),
    (5, 3, 12): (2, 48360, 3, 7447440),
    (5, 3, 13): (1, 624, 2, 193440),
    (7, 2, 2): (42, 9576, 49, 100890),
    (7, 2, 3): (35, 19152, 36, 156408),
    (7, 2, 9): (5, 19152, 6, 19152),
    (7, 2, 10): (4, 23940, 5, 57456),
    (7, 2, 11): (3, 19152, 4, 1503432),
    (7, 2, 12): (2, 9576, 3, 877800),
    (7, 2, 13): (1, 342, 2, 57456),
    (7, 3, 2): (294, 478800, 336, 123171300),
    (7, 3, 17): (3, 957600, 4, 567856800),
    (7, 3, 18): (2, 478800, 3, 317604000),
    (7, 3, 19): (1, 2400, 2, 2872800),
    (11, 2, 2): (110, 87780, 121, 1610630),
    (11, 2, 18): (4, 658350, 5, 7373520),
    (11, 2, 19): (3, 292600, 4, 93778300),
    (11, 2, 20): (2, 87780, 3, 34497540),
    (11, 2, 21): (1, 1330, 2, 877800),
    (13, 2, 2): (156, 199836, 169, 4455684),
    (13, 2, 22): (4, 2198196, 5, 39567528),
    (13, 2, 23): (3, 799344, 4, 427249368),
    (13, 2, 24): (2, 199836, 3, 132624492),
    (13, 2, 25): (1, 2196, 2, 2398032),
}


def test_criterion_4_identity_instances_gf3(reports):
    failures = []
    for d in (2, 3, 4):
        _, rep = reports("prm", 3, 2, d)
        if rep.min_weight != w1_rm(2, d - 1, 3):
            failures.append(
                f"PRM(2,{d}) q=3: w1={rep.min_weight}, expected {w1_rm(2, d - 1, 3)}"
            )
    for d in (1, 2, 3):
        _, rep = reports("rm", 3, 2, d)
        options = w2_rm_candidates(2, d, 3)
        if rep.next_weight not in options:
            failures.append(f"RM(2,{d}) q=3: w2={rep.next_weight} not in {options}")
    for (q, n, d), frozen in QARY_PRM_FIXTURE.items():
        _, rep = reports("prm", q, n, d)
        w1, w2 = rep.min_weight, rep.next_weight
        options = w2_rm_candidates(n, d - 1, q)
        if w1 != w1_prm(n, d, q):
            failures.append(f"PRM({n},{d}) q={q}: w1={w1}, expected {w1_prm(n, d, q)}")
        if w2 not in options:
            failures.append(f"PRM({n},{d}) q={q}: w2={w2} not in RM(n,d-1) options {options}")
        got = (w1, rep.weight_counts[w1], w2, rep.weight_counts[w2])
        if got != frozen:
            failures.append(f"PRM({n},{d}) q={q}: got w1,A,w2,A={got}, frozen {frozen}")
    report_line(
        4,
        "q>=3 identity instances, candidate membership, and "
        f"{len(QARY_PRM_FIXTURE)} frozen q>=3 PRM rows",
        failures,
    )


def test_criterion_5_quadric_witness_weights():
    failures = []
    for n, expected in ((3, 6), (4, 12), (5, 24), (6, 48)):
        f = parse_poly("X0*X3+X1*X2", n + 1, gf2)
        weight = len(projective_support(f, n, gf2))
        if weight != expected:
            failures.append(f"P^{n}: quadric weight {weight}, expected {expected}")
    report_line(5, "quadric evaluates to weight 3*2^(n-2) for n in 3..6", failures)


def test_criterion_6_subspace_bound_suite():
    failures = []
    for d in (2, 3):
        code = build(CodeParams("prm", 2, 3, d))
        _, supports = all_nonzero_codeword_supports(code)
        bad = 0
        for support in supports:
            bad += len(check_subspace_bounds([support], code.params))
        if bad:
            failures.append(f"PRM(3,{d}): {bad} intersection-bound violations")
    report_line(6, "intersection bounds hold on every codeword of PRM(3,2), PRM(3,3)", failures)


def test_criterion_7_avoiding_subspace_conclusions():
    code = build(CodeParams("prm", 2, 3, 2))
    _, supports = all_nonzero_codeword_supports(code)
    failures = []
    no_hyperplane = sum(
        1
        for s in supports
        if len(s) < 6 and find_avoiding_subspace([s], 3, gf2, 2)[0] is None
    )
    if no_hyperplane:
        failures.append(f"{no_hyperplane} codewords of weight < 6 without avoiding hyperplane")
    no_subspace = sum(
        1
        for s in supports
        if len(s) <= 6 and find_avoiding_subspace_at_least([s], 3, gf2, 0)[0] is None
    )
    if no_subspace:
        failures.append(f"{no_subspace} codewords of weight <= 6 without avoiding subspace")
    report_line(7, "avoiding hyperplane/subspace exists on every qualifying codeword", failures)


def test_criterion_9_minimal_codewords_are_hyperplane_unions():
    code = build(CodeParams("prm", 2, 3, 2))
    # every codeword is the form sum c_i m_i over the basis monomials m_i
    coeffs = [c for c in product((0, 1), repeat=code.dimension) if any(c)]
    forms = [Poly(gf2, 4, dict(zip(code.basis_monomials, c))) for c in coeffs]
    supports = [projective_support(f, 3, gf2) for f in forms]
    failures = []
    w1 = min(len(s) for s in supports)
    minimal = 0
    for f, support in zip(forms, supports):
        if len(support) != w1:
            continue
        minimal += 1
        if not zero_set_is_hyperplane_union(f, 3, gf2).is_union:
            failures.append(f"minimal codeword {f} is not a hyperplane union")
    quadric = parse_poly("X0*X3+X1*X2", 4, gf2)
    if zero_set_is_hyperplane_union(quadric, 3, gf2).is_union:
        failures.append("quadric zero set reported as a hyperplane union")
    report_line(
        9,
        f"all {minimal} minimum-weight codewords of PRM(3,2) are hyperplane unions; quadric is not",
        failures,
    )


def test_criterion_10_oracle_equivalence():
    grid = []
    for q, nmax in ((2, 4), (3, 3)):
        for n in range(1, nmax + 1):
            for d in range(0, n * (q - 1) + 1):
                grid.append(("rm", q, n, d))
            for d in range(1, n * (q - 1) + 2):
                grid.append(("prm", q, n, d))
    failures, run = [], 0
    for family, q, n, d in grid:
        code = build(CodeParams(family, q, n, d))
        if q**code.dimension > 2**16:
            continue
        run += 1
        if weight_report(code).weight_counts != naive_weight_counts(code):
            failures.append(f"{family}({n},{d}) q={q}: enumerators disagree")
    report_line(10, f"incremental vs naive enumerator agree on {run} codes (q^dim <= 2^16)", failures)
