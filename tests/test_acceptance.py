"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single summary line; run with -s (or read the -v test
report) to see them.  The Gabidulin grid of criterion 2 is shared with the
MRD check of criterion 9, which is why both draw from one fixture.
"""

import itertools
import random

import pytest

from rmcodes import (
    DependentVector,
    IndependentTuple,
    Mat,
    MatrixCode,
    enumerate_gl,
    enumerate_mat_maps,
    enumerate_rm_maps,
    expand,
    gabidulin,
    group_order,
    make_tower,
    mat_apply,
    min_rank_distance,
    power_basis,
    rm_apply,
    rm_aut_brute,
    rm_aut_group,
    rm_to_mat,
    run_example,
    verify_distance_law,
)
from rmcodes.elimination import flatten, span
from rmcodes.fields import FieldElement
from translation_oracle import KSubgroup, frobenius_matrix, mult_matrix, semilinear_matrix
from vec_oracle import rank_preserving_vec_maps, vec_matrix


def _random_gab_vector(tower, l, rnd):
    while True:
        els = tuple(FieldElement(tower, rnd.randrange(1, tower.order))
                    for _ in range(l))
        try:
            return IndependentTuple(els)
        except DependentVector:
            continue


@pytest.fixture(scope="module")
def gabidulin_grid():
    """Criterion 2/9 grid: q in {2,3}, l in {2,3}, m in {3,4}, k < l < m,
    20 sampled Gabidulin vectors per (q, l, m) point, seed 0."""
    rnd = random.Random(0)
    codes = []
    for p in (2, 3):
        for m in (3, 4):
            tower = make_tower(p, 1, m)
            for l in (2, 3):
                if not l < m:
                    continue
                vectors = [_random_gab_vector(tower, l, rnd) for _ in range(20)]
                for k in range(1, l):
                    for g in vectors:
                        codes.append(gabidulin(k, g))
    return codes


def _checked_values(example):
    """label -> actual value of every CheckLine of a passing worked example;
    verify.py builds each worked example, the tests pin its numbers."""
    report = run_example(example)
    assert report.passed, report.render()
    return {line.label: line.actual for line in report.lines}


def test_criterion_1_berger_counterexample(f81):
    got = _checked_values("berger-counterexample")
    assert got["order of [alpha, I_2] in the coset group"] == 80
    assert got["|GL_2(F_3)|"] == 48
    assert got["elements of order 16 in GL_2(F_3)"] == 0
    assert f81.mult_order // (f81.q - 1) == 40
    assert got["pairs scanned in (F_81*/F_3*) x GL_2(F_3)"] == 1920
    assert got["elements of order 80 in the direct product"] == 0
    print("criterion 1: PASS — coset order 80; no order-16 element in "
          "GL_2(F_3); no order-80 element among 1920 direct-product pairs")


def test_criterion_2_analytic_equals_brute(gabidulin_grid):
    assert len(gabidulin_grid) == 160  # 8 (q,l,m,k) combos x 20 vectors
    for code in gabidulin_grid:
        analytic = rm_aut_group(code)
        brute = rm_aut_brute(code)
        assert analytic.same_elements(brute), (
            f"stabilizer mismatch at q={code.tower.q}, l={code.l}, "
            f"m={code.tower.m}, k={code.k}, g={code.g.codes()}")
    print(f"criterion 2: PASS — analytic automorphism group equals the brute"
          f" stabilizer on all {len(gabidulin_grid)} grid codes")


def test_criterion_3_f16_automorphism():
    got = _checked_values("f16-aut")
    assert got["stabilizer degree d"] == 2
    assert got["M_beta for beta = g^5"] == ((0, 1), (1, 1))
    assert got["[1, M_beta] fixes the code"] is True
    print("criterion 3: PASS — d = 2, M_beta = [[0,1],[1,1]], and "
          "[1, M_beta] fixes the code")


def test_criterion_4_f64_examples():
    # first example: an equivalent image that is not an expanded Gabidulin code
    got = _checked_values("f64-not-gabidulin")
    assert got["|image code|"] == 4096
    assert got["|span over F_64 of the compressed image|"] == 16777216
    assert got["image is F_64-linear"] is False

    # second example: a stabilizer member whose left factor alone is not one
    # (membership by the stabilizer predicate maps_onto; the group it lies
    # in is the third example's)
    got = _checked_values("f64-not-direct-product")
    assert got["[L, M] fixes the expanded code"] is True
    assert got["[L, I_6] fixes the expanded code"] is False
    assert got["g L"] == "(g^1, g^14, g^37, g^16)"
    assert got["g L in the code"] is False

    # third example: the exact matrix stabilizer of the expanded code, one
    # linear solve per leading-one L (20160), though the group of all maps
    # has about 4*10^14 elements
    got = _checked_values("f64-full-aut")
    assert got["order of the full matrix automorphism group"] == 1134
    assert got["[L, M] of f64-not-direct-product is a member"] is True
    assert got["translated analytic maps in the group"] == 189
    assert got["index of the translated analytic group"] == 6
    print("criterion 4: PASS — 16777216 > 4096 span blow-up; [L,M] in the "
          "matrix stabilizer; g L = (g^1, g^14, g^37, g^16) outside the code; "
          "the stabilizer has order 1134 = 6 x 189")


def test_criterion_5_distance_law(f16):
    rnd = random.Random(0)
    codes_checked = 0
    pairs_checked = 0
    for _ in range(100):
        l = rnd.choice((2, 3))
        m = rnd.choice((3, 4))
        dim = rnd.randrange(1, 7)
        s = span(f16, l * m)
        mats = []
        while len(mats) < dim:
            A = Mat(f16, [[rnd.randrange(2) for _ in range(m)]
                          for _ in range(l)], subdeg=1, check=False)
            if s.add(flatten(A.rows)):
                mats.append(A)
        mc = MatrixCode(f16, l, m, mats)
        piv1 = tuple(range(1, l + 1))
        piv2 = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        while piv2 == piv1:
            piv2 = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        r1 = verify_distance_law(mc, piv1)
        r2 = verify_distance_law(mc, piv2)
        assert r1.all_match and r2.all_match
        assert r1.distance_multiset == r2.distance_multiset
        codes_checked += 1
        pairs_checked += r1.pairs_checked + r2.pairs_checked
    print(f"criterion 5: PASS — d_S = 2 d_R on {pairs_checked} pairs across "
          f"{codes_checked} random codes, multisets pivot-independent")


def test_criterion_6_rank_preserving_classification(f4):
    gl4_count = sum(1 for _ in enumerate_gl(f4, 4))
    assert gl4_count == 20160
    preservers = rank_preserving_vec_maps(f4, 2, 2)
    assert len(preservers) == 72
    table = {vec_matrix(f).rows: f for f in enumerate_mat_maps(f4, 2, 2)}
    assert len(table) == 72
    found = {G.rows for G in preservers}
    assert found == set(table.keys())
    print("criterion 6: PASS — scanning all 20160 elements of GL_4(F_2) "
          "finds exactly the 72 canonical (transpose?, L, M) forms")


def test_criterion_7_group_order_formulas(f4, f8, f16):
    assert group_order(f8, 2, "rm-linear") == 42
    assert sum(1 for _ in enumerate_rm_maps(f8, 2)) == 42
    assert group_order(f4, 2, "rm-linear") == 18
    assert sum(1 for _ in enumerate_rm_maps(f4, 2)) == 18
    assert group_order(f4, 2, "mat-linear", m=2) == 72
    assert sum(1 for _ in enumerate_mat_maps(f4, 2, 2)) == 72
    k4 = KSubgroup(power_basis(f4))
    assert f4.m * f4.mult_order == 6 == len({M.rows for M in k4.enumerate()})
    k16 = KSubgroup(power_basis(f16))
    assert f16.m * f16.mult_order == 60 == len({M.rows for M in k16.enumerate()})
    print("criterion 7: PASS — group orders 42/18/72 and |K| = 6/60 all "
          "match enumeration")


def test_criterion_8_translation_commuting_square(f16):
    b = power_basis(f16)
    vectors = [tuple(FieldElement(f16, c) for c in v)
               for v in itertools.product(range(16), repeat=2)]
    expanded = {v: expand(v, b) for v in vectors}
    n_maps = 0
    for f in enumerate_rm_maps(f16, 2, semilinear=True):
        g = rm_to_mat(f, b)
        for v in vectors:
            assert expand(rm_apply(f, v), b) == mat_apply(g, expanded[v])
        n_maps += 1
    assert n_maps == group_order(f16, 2, "rm-semilinear") == 360
    print(f"criterion 8: PASS — commuting square holds for all {n_maps} "
          f"canonical maps (4 Frobenius powers) on all 256 vectors")


def test_criterion_9_mrd_property(gabidulin_grid):
    for code in gabidulin_grid:
        assert min_rank_distance(code) == code.l - code.k + 1, (
            f"MRD violated at q={code.tower.q}, l={code.l}, "
            f"m={code.tower.m}, k={code.k}")
    print(f"criterion 9: PASS — every grid code attains rank distance "
          f"l - k + 1 by exhaustion ({len(gabidulin_grid)} codes)")


def test_criterion_10_algebraic_identity_suite():
    towers = [make_tower(2, 1, 4, [1, 1, 0, 0, 1]),
              make_tower(2, 1, 6, [1, 1, 0, 1, 1, 0, 1]),
              make_tower(3, 1, 4),
              make_tower(2, 2, 2)]
    checks = 0
    for tower in towers:
        assert tower.order <= 256
        b = power_basis(tower)
        Q = frobenius_matrix(b)
        w = tower.generator
        Ma = mult_matrix(w.code, b)
        Maq = mult_matrix((w**tower.q).code, b)
        assert Ma @ Q == Q @ Maq
        alphas = [w, w**3, tower.one]
        for x in tower.elements():
            ex = expand((x,), b)
            for alpha in alphas:
                assert expand((alpha * x,), b) == ex @ mult_matrix(alpha.code, b)
            assert expand((x.frobenius(tower.e),), b) == ex @ Q
            for r in range(tower.e):
                P = semilinear_matrix(b, r)
                assert expand((x.frobenius(r),), b) == (ex @ P).frobenius(r)
            from rmcodes import compress
            assert compress(ex, b) == (x,)
            checks += 1
    # above 256 elements: property-sampled, 1000 cases, seed 0
    big = make_tower(2, 1, 10)
    bb = power_basis(big)
    Qb = frobenius_matrix(bb)
    wb = big.generator
    assert (mult_matrix(wb.code, bb) @ Qb == Qb @ mult_matrix((wb**2).code, bb))
    rnd = random.Random(0)
    from rmcodes import compress
    for _ in range(1000):
        x = FieldElement(big, rnd.randrange(1024))
        alpha = FieldElement(big, rnd.randrange(1, 1024))
        ex = expand((x,), bb)
        assert expand((alpha * x,), bb) == ex @ mult_matrix(alpha.code, bb)
        assert expand((x.frobenius(1),), bb) == ex @ Qb
        assert compress(ex, bb) == (x,)
        checks += 1
    print(f"criterion 10: PASS — identity suite exhaustive on four fields "
          f"up to 256 elements plus 1000 sampled cases in F_1024 "
          f"({checks} base points)")
