"""Equivalence map groups: actions, composition, orders, translation, search."""

import itertools
import random

import pytest

from rmcodes import (
    BadParams,
    IllegalTranspose,
    Mat,
    MatMap,
    MatrixCode,
    RankMetricCode,
    RmMap,
    ShapeMismatch,
    TooLarge,
    TowerMismatch,
    are_equivalent,
    enumerate_gl,
    enumerate_mat_maps,
    enumerate_rm_maps,
    equivalence_maps,
    expand,
    expand_code,
    gabidulin,
    group_order,
    make_tower,
    mat_apply,
    mat_aut_brute,
    mat_map,
    power_basis,
    rank,
    rm_apply,
    rm_map,
    rm_to_mat,
)
from rmcodes import codes, equivalence
from rmcodes.equivalence import MODES, _walk_order, format_map, parse_map
from rmcodes.fields import FieldElement

import scan_oracle
import translation_oracle
from vec_oracle import rank_preserving_vec_maps, vec_matrix, vec_matrix_product


def random_rm_map(tower, l, rnd, semilinear=False):
    gl = list(enumerate_gl(tower, l))
    return RmMap(rnd.randrange(1, tower.order), rnd.choice(gl),
                 rnd.randrange(tower.degree) if semilinear else 0)


PREFILTERS = ["shape mismatch", "size mismatch", "minimum distance mismatch"]


def prefilter_pair(f16, mode, reason):
    """Two codes of mode's kind that the pre-filter named by reason tells
    apart: l = 2 against l = 3, k = 1 against k = 2, and a Gabidulin code
    (d = 2) against the code of (1, 0) (d = 1)."""
    w = f16.generator
    g2, g3 = (f16.one, w**5), (f16.one, w, w**2)
    c1, c2 = {"shape mismatch": (gabidulin(1, g2), gabidulin(1, g3)),
              "size mismatch": (gabidulin(1, g3), gabidulin(2, g3)),
              "minimum distance mismatch": (gabidulin(1, g2),
                                            RankMetricCode(Mat(f16, [[1, 0]], subdeg=4)))}[reason]
    if mode.startswith("rm"):
        return c1, c2
    return expand_code(c1, power_basis(f16)), expand_code(c2, power_basis(f16))


class TestRmAction:
    def test_identity(self, f16):
        f = RmMap.identity(f16, 2)
        w = f16.generator
        assert rm_apply(f, (w, w**3)) == (w, w**3)

    def test_scalar_fixes_linear_code(self, f16):
        w = f16.generator
        code = gabidulin(1, (f16.one, w**5))
        f = RmMap((w**5).code, Mat.identity(f16, 2))
        assert rm_apply(f, code) == code

    def test_published_automorphism(self, f16):
        w = f16.generator
        code = gabidulin(1, (f16.one, w**5))
        f = RmMap(1, Mat(f16, [[0, 1], [1, 1]]))
        assert rm_apply(f, code) == code

    def test_rank_weight_preserved_all_maps(self, f4):
        # every enumerated map preserves rank weight on every vector
        b = power_basis(f4)
        vectors = [tuple(FieldElement(f4, c) for c in v)
                   for v in itertools.product(range(4), repeat=2)]
        for f in enumerate_rm_maps(f4, 2, semilinear=True):
            for v in vectors:
                assert rank(expand(rm_apply(f, v), b)) == rank(expand(v, b))

    def test_shape_mismatch(self, f16):
        f = RmMap.identity(f16, 2)
        with pytest.raises(ShapeMismatch):
            f.apply_codes((1, 2, 3))

    def test_code_from_another_tower(self, f16, f8):
        # codes are checked like vectors: no F_8 code built from F_16 codes
        code = gabidulin(1, (f16.one, f16.generator**5))
        with pytest.raises(TowerMismatch):
            rm_apply(RmMap.identity(f8, 2), code)
        with pytest.raises(TowerMismatch):
            word = next(code.codeword_codes())
            rm_apply(RmMap.identity(f8, 2), tuple(FieldElement(f16, c) for c in word))


class TestRmGroup:
    def test_order_80(self, f81):
        f = RmMap(f81.generator.code, Mat.identity(f81, 2))
        assert f.order() == 80

    def test_order_refused_past_the_guard(self, f81, monkeypatch):
        f = RmMap(f81.generator.code, Mat.identity(f81, 2))
        monkeypatch.setattr(equivalence, "DEFAULT_GUARD", 80)
        assert f.order() == 80
        monkeypatch.setattr(equivalence, "DEFAULT_GUARD", 79)
        with pytest.raises(TooLarge, match=r"^map order exceeds guard 79$"):
            f.order()

    def test_compose_invert_random(self, f16):
        rnd = random.Random(0)
        for _ in range(50):
            f = random_rm_map(f16, 2, rnd, semilinear=True)
            assert f.compose(f.inverse()).is_identity()
            assert f.inverse().compose(f).is_identity()

    def test_linear_composition_merges_parts(self, f16):
        rnd = random.Random(1)
        for _ in range(20):
            f1 = random_rm_map(f16, 2, rnd)
            f2 = random_rm_map(f16, 2, rnd)
            g = f1.compose(f2)
            for _ in range(3):
                v = tuple(rnd.randrange(16) for _ in range(2))
                assert g.apply_codes(v) == f2.apply_codes(f1.apply_codes(v))

    def test_semilinear_group_law_by_action(self, f16):
        # (A1; g1)(A2; g2) = (A1 A2^(g1^-1); g1 g2), compared as actions
        rnd = random.Random(2)
        for _ in range(25):
            f1 = random_rm_map(f16, 2, rnd, semilinear=True)
            f2 = random_rm_map(f16, 2, rnd, semilinear=True)
            g = f1.compose(f2)
            assert g.gamma == (f1.gamma + f2.gamma) % f16.degree
            for _ in range(4):
                v = tuple(rnd.randrange(16) for _ in range(2))
                assert g.apply_codes(v) == f2.apply_codes(f1.apply_codes(v))

    def test_associativity_sampled(self, f16):
        rnd = random.Random(3)
        for _ in range(15):
            f1, f2, f3 = (random_rm_map(f16, 2, rnd, semilinear=True)
                          for _ in range(3))
            assert f1.compose(f2).compose(f3) == f1.compose(f2.compose(f3))

    def test_compose_refuses_maps_on_other_spaces(self, f16, f4):
        f = RmMap.identity(f16, 2)
        with pytest.raises(BadParams):
            f.compose(MatMap.identity(f16, 2, 2))
        with pytest.raises(TowerMismatch):
            f.compose(RmMap.identity(f4, 2))
        with pytest.raises(ShapeMismatch):
            f.compose(RmMap.identity(f16, 3))

    def test_canonical_coset_collapse(self, f16):
        # [alpha, L] and [lambda alpha, lambda^-1 L] are the same coset;
        # over F_2 the only scaling is trivial, so use the scaling built
        # into canonicalisation: L with leading entry 1 stays put
        f = RmMap(3, Mat(f16, [[1, 0], [0, 1]]))
        assert f.L.rows == ((1, 0), (0, 1))
        assert f.alpha == 3


class TestMatAction:
    def test_identity_and_transpose_rank(self, f4):
        ident = MatMap.identity(f4, 2, 2)
        T = MatMap(True, Mat.identity(f4, 2), Mat.identity(f4, 2))
        for entries in itertools.product(range(2), repeat=4):
            A = Mat(f4, [entries[:2], entries[2:]])
            assert ident.apply_mat(A) == A
            assert rank(T.apply_mat(A)) == rank(A)

    def test_transpose_squares_to_identity(self, f4):
        T = MatMap(True, Mat.identity(f4, 2), Mat.identity(f4, 2))
        assert T.order() == 2

    def test_illegal_transpose(self, f4):
        with pytest.raises(IllegalTranspose):
            mat_map(Mat.identity(f4, 2), Mat.identity(f4, 3), transpose=True)

    def test_rank_preserved_all_maps(self, f4):
        mats = [Mat(f4, [entries[:3], entries[3:]])
                for entries in itertools.product(range(2), repeat=6)]
        for f in enumerate_mat_maps(f4, 2, 3, semilinear=True):
            for A in mats:
                assert rank(f.apply_mat(A)) == rank(A)

    def test_compose_invert_random(self, f16_q4):
        # e = 2 exercises the semi-linear gamma in matrix maps
        rnd = random.Random(4)
        gl = list(enumerate_gl(f16_q4, 2))
        for _ in range(30):
            f = MatMap(rnd.random() < 0.5, rnd.choice(gl), rnd.choice(gl),
                       rnd.randrange(2))
            assert f.compose(f.inverse()).is_identity()
            g = MatMap(rnd.random() < 0.5, rnd.choice(gl), rnd.choice(gl),
                       rnd.randrange(2))
            h = f.compose(g)
            for _ in range(3):
                A = Mat(f16_q4, [[rnd.choice(f16_q4.subfield_codes(1))
                                  for _ in range(2)] for _ in range(2)],
                        check=False)
                assert h.apply_mat(A) == g.apply_mat(f.apply_mat(A))


def _top(t):
    """A matrix over the top field of t, not over its base field."""
    return Mat(t, [[t.generator.code, 0], [0, 1]], subdeg=t.m)


class TestEdgeCheck:
    """Parts from outside enter through rm_map, mat_map and parse_map, which
    refuse every part that makes no group element (the CLI tests cover
    parse_map); the map constructors only canonicalise."""

    @pytest.mark.parametrize("build, error", [
        pytest.param(lambda t, u: rm_map(FieldElement(t, 0), Mat.identity(t, 2)),
                     BadParams, id="rm-alpha-zero"),
        pytest.param(lambda t, u: rm_map(t.one, Mat(t, [[1, 1], [1, 1]])),
                     BadParams, id="rm-singular-L"),
        pytest.param(lambda t, u: rm_map(t.one, Mat(t, [[1, 0, 0], [0, 1, 0]])),
                     BadParams, id="rm-non-square-L"),
        pytest.param(lambda t, u: rm_map(t.one, _top(t)),
                     BadParams, id="rm-L-not-over-base-field"),
        pytest.param(lambda t, u: rm_map(u.one, Mat.identity(t, 2)),
                     TowerMismatch, id="rm-two-towers"),
        pytest.param(lambda t, u: mat_map(Mat(t, [[1, 1], [1, 1]]), Mat.identity(t, 2)),
                     BadParams, id="mat-singular-L"),
        pytest.param(lambda t, u: mat_map(Mat.identity(t, 2), Mat(t, [[1, 1], [1, 1]])),
                     BadParams, id="mat-singular-M"),
        pytest.param(lambda t, u: mat_map(Mat.identity(t, 2), Mat(t, [[1, 0, 1]])),
                     BadParams, id="mat-non-square-M"),
        pytest.param(lambda t, u: mat_map(Mat.identity(t, 2), _top(t)),
                     BadParams, id="mat-M-not-over-base-field"),
        pytest.param(lambda t, u: mat_map(Mat.identity(t, 2), Mat.identity(u, 2)),
                     TowerMismatch, id="mat-two-towers"),
    ])
    def test_rejects(self, f16, f4, build, error):
        with pytest.raises(error):
            build(f16, f4)


class TestGroupOrders:
    def test_closed_forms_against_enumeration(self, f8, f4):
        assert group_order(f8, 2, "rm-linear") == 42
        assert sum(1 for _ in enumerate_rm_maps(f8, 2)) == 42
        assert group_order(f4, 2, "rm-linear") == 18
        assert sum(1 for _ in enumerate_rm_maps(f4, 2)) == 18
        assert group_order(f4, 2, "mat-linear", m=2) == 72
        assert sum(1 for _ in enumerate_mat_maps(f4, 2, 2)) == 72
        assert group_order(f8, 2, "mat-linear", m=3) == 1008
        assert sum(1 for _ in enumerate_mat_maps(f8, 2, 3)) == 1008

    def test_published_counting(self, f81):
        assert group_order(f81, 2, "rm-linear") == 80 * 48 // 2 == 1920

    def test_semilinear_factors(self, f16, f16_q4):
        assert (group_order(f16, 2, "rm-semilinear")
                == 4 * group_order(f16, 2, "rm-linear"))
        assert (group_order(f16_q4, 2, "mat-semilinear", m=2)
                == 2 * group_order(f16_q4, 2, "mat-linear", m=2))

    @pytest.mark.parametrize("spec", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4),
                                      (3, 1, 2), (5, 1, 2), (2, 2, 2)])
    def test_product_of_parts_matches_closed_forms(self, spec):
        t = make_tower(*spec)
        for l, mode in itertools.product(range(4), MODES):
            for m in (None, t.m) if mode.startswith("rm") else range(1, 5):
                assert group_order(t, l, mode, m) == scan_oracle.group_order(t, l, mode, m)

    def test_unknown_mode_and_missing_m(self, f4):
        for mode, m, match in (("bogus", 2, r"^unknown mode 'bogus'; choose from \("),
                               ("mat-linear", None, r"^matrix modes need the column count m$")):
            with pytest.raises(BadParams, match=match):
                group_order(f4, 2, mode, m)

    @pytest.mark.parametrize("tower", ["f4", "f81", "f16_q4"])
    def test_guarded_order_is_exact_at_the_guard(self, request, tower):
        # rank-metric modes: the shape bound never refuses an order within
        # the guard
        t = request.getfixturevalue(tower)
        for l, mode in itertools.product(range(1, 6), ("rm-linear", "rm-semilinear")):
            order = group_order(t, l, mode)
            _walk_order(t, l, mode, order)
            with pytest.raises(TooLarge, match="exceeds guard"):
                _walk_order(t, l, mode, order - 1)

    def test_guarded_order_refuses_from_the_shape(self, f4, f16_q4):
        with pytest.raises(TooLarge, match=r"^group order 18 exceeds guard 17$"):
            _walk_order(f4, 2, "rm-linear", 17)
        shape = r"^group order of at least 2\^{} exceeds guard 1048576$"
        with pytest.raises(TooLarge, match=shape.format(499999500000)):
            _walk_order(f4, 10**6, "rm-linear", 2**20)
        with pytest.raises(TooLarge, match=shape.format(1560)):
            _walk_order(f16_q4, 3, "mat-semilinear", 2**20, m=40)

    def test_enumeration_is_duplicate_free(self, f81):
        keys = [f.key for f in enumerate_rm_maps(f81, 2)]
        assert len(keys) == len(set(keys)) == 1920


class TestTranslation:
    def test_identity_maps_to_identity(self, f16):
        b = power_basis(f16)
        g = rm_to_mat(RmMap.identity(f16, 2), b)
        assert g.is_identity()

    def test_scalar_maps_to_mult_matrix(self, f16):
        b = power_basis(f16)
        w = f16.generator
        g = rm_to_mat(RmMap(w.code, Mat.identity(f16, 2)), b)
        assert not g.transpose
        assert g.L.is_identity()
        assert g.M == translation_oracle.mult_matrix(w.code, b)

    def test_sigma_q_case_commutes(self, f16):
        # gamma = e corresponds to one Q factor and residual r = 0
        b = power_basis(f16)
        w = f16.generator
        rnd = random.Random(5)
        gl = list(enumerate_gl(f16, 2))
        L = rnd.choice(gl)
        f = RmMap((w**3).code, L, gamma=1)  # e = 1: sigma_q = sigma_p
        g = rm_to_mat(f, b)
        assert g.L == L.transpose()
        assert g.M == (translation_oracle.mult_matrix((w**3).code, b)
                       @ translation_oracle.frobenius_matrix(b))
        assert g.gamma == 0
        for codes in itertools.product(range(16), repeat=2):
            x = tuple(FieldElement(f16, c) for c in codes)
            assert expand(rm_apply(f, x), b) == mat_apply(g, expand(x, b))

    def test_commuting_square_q4(self, f16_q4):
        # e = 2 exercises the P_r factor and a nonzero residual gamma
        b = power_basis(f16_q4)
        rnd = random.Random(6)
        gl = list(enumerate_gl(f16_q4, 2))
        for _ in range(10):
            f = RmMap(rnd.randrange(1, 16), rnd.choice(gl), rnd.randrange(4))
            g = rm_to_mat(f, b)
            assert g.gamma == f.gamma % 2
            for _ in range(10):
                x = tuple(FieldElement(f16_q4, rnd.randrange(16)) for _ in range(2))
                assert expand(rm_apply(f, x), b) == mat_apply(g, expand(x, b))


class TestAreEquivalent:
    def test_self_equivalence_identity_witness(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        res = are_equivalent(code, code, "rm-linear")
        assert res.equivalent
        assert res.witness.is_identity()
        assert res.checked == 1

    def test_image_under_l_is_equivalent(self, f16):
        # the image of a Gabidulin code under [1, L] is the code on g L
        rnd = random.Random(7)
        code = gabidulin(1, (f16.one, f16.generator**5))
        for L in rnd.sample(list(enumerate_gl(f16, 2)), 3):
            image = rm_apply(RmMap(1, L), code)
            res = are_equivalent(code, image, "rm-linear")
            assert res.equivalent
            assert rm_apply(res.witness, code) == image

    def test_inequivalent_pair_exhausts(self, f16):
        c1 = gabidulin(1, (f16.one, f16.generator**5))
        c2 = gabidulin(1, (f16.one, f16.generator))
        res = are_equivalent(c1, c2, "rm-linear")
        assert not res.equivalent
        assert res.reason == "group exhausted"
        assert res.checked == group_order(f16, 2, "rm-linear")

    def test_semilinear_finds_frobenius_image(self, f16):
        c1 = gabidulin(1, (f16.one, f16.generator**5))
        rows = [tuple(f16.frob(c, 1) for c in row) for row in c1.gen.rows]
        from rmcodes import RankMetricCode
        c2 = RankMetricCode(Mat(f16, rows, subdeg=4))
        res = are_equivalent(c1, c2, "rm-semilinear")
        assert res.equivalent

    def test_matrix_mode(self, f4):
        b = power_basis(f4)
        mc = MatrixCode(f4, 2, 2, [Mat(f4, [[1, 0], [0, 0]])])
        L = Mat(f4, [[0, 1], [1, 0]])
        image = mat_apply(MatMap(False, L, Mat.identity(f4, 2)), mc)
        res = are_equivalent(mc, image, "mat-linear")
        assert res.equivalent

    @pytest.mark.parametrize("mode", ["mat-linear", "mat-semilinear"])
    def test_zero_codes_have_the_identity_witness(self, f4, mode):
        """{0} has no minimum distance, so the distance pre-filter passes
        it by: every map fixes it, and the identity comes first."""
        zero = MatrixCode(f4, 2, 2, [])
        res = are_equivalent(zero, MatrixCode(f4, 2, 2, []), mode)
        assert (res.equivalent, res.checked, res.reason) == (True, 1, "witness found")
        assert res.witness.is_identity()

    @pytest.mark.parametrize("reason", PREFILTERS)
    @pytest.mark.parametrize("mode", ["rm-linear", "mat-semilinear"])
    def test_prefilter_decides_with_no_map_checked(self, f16, mode, reason):
        c1, c2 = prefilter_pair(f16, mode, reason)
        want = (False, None, 0, mode, reason)
        for res in (are_equivalent(c1, c2, mode), scan_oracle.are_equivalent(c1, c2, mode)):
            assert (res.equivalent, res.witness, res.checked, res.mode, res.reason) == want

    def test_guard(self, f64):
        c = gabidulin(1, (f64.one, f64.generator))
        with pytest.raises(TooLarge):
            are_equivalent(c, c, "rm-linear", guard=10)

    def test_distance_prefilter_obeys_the_guard(self, f16, monkeypatch):
        ranked = []
        real = codes.rank
        monkeypatch.setattr(codes, "rank", lambda A: ranked.append(A) or real(A))
        # the expanded F_32 code has 32768 words and its 20160 classes pass a
        # guard of 20160; the pre-filter, bounded by that guard, ranks none
        f32 = make_tower(2, 1, 5)
        w = f32.generator
        big = expand_code(gabidulin(3, (f32.one, w, w**2, w**3)), power_basis(f32))
        res = are_equivalent(big, big, "mat-linear", guard=20160)
        assert res and res.checked == 1
        assert ranked == []
        # at the default guard the pre-filter ranks the 15 nonzero words of
        # each expanded F_16 code (distance 2, so no early stop)
        mc = expand_code(gabidulin(1, (f16.one, f16.generator**5)), power_basis(f16))
        assert are_equivalent(mc, mc, "mat-linear").checked == 1
        assert len(ranked) == 30


class TestMatrixWalkGuard:
    """Matrix modes refuse on the walk's work, not on the group order: the
    classes (gamma, T?, L) before any solve, then the running total of
    q^dim over the kernels solved before each kernel is walked."""

    def test_classes_refused_before_any_solve(self, f8, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a solve ran")
        monkeypatch.setattr(equivalence, "_mat_solves", no_solve)
        zero = MatrixCode(f8, 3, 3, [])  # |GL_3(F_2)| = 168 L, two flags
        message = r"^336 classes \(gamma, T\?, L\) to solve exceed guard 335$"
        with pytest.raises(TooLarge, match=message):
            equivalence_maps(zero, zero, "mat-linear", guard=335)
        with pytest.raises(TooLarge, match=message):
            are_equivalent(zero, zero, "mat-linear", guard=335)
        with pytest.raises(TooLarge, match=message):
            mat_aut_brute(zero, guard=335)

    def test_kernel_total_refused_mid_walk(self, f16):
        # the expanded worked example: 6 classes, each kernel of dimension 8
        mc = expand_code(gabidulin(1, (f16.one, f16.generator**5)), power_basis(f16))
        assert group_order(f16, 2, "mat-linear", m=4) == 120960
        assert mat_aut_brute(mc, guard=1536).order == 1080
        message = r"^1536 kernel members in 6 solves exceed guard 1535$"
        taken = []
        with pytest.raises(TooLarge, match=message):
            for f in equivalence_maps(mc, mc, "mat-linear", guard=1535):
                taken.append(f)
        assert taken and taken == list(equivalence_maps(mc, mc, "mat-linear"))[:len(taken)]
        with pytest.raises(TooLarge, match=message):
            mat_aut_brute(mc, guard=1535)


class TestRankPreservingOracle:
    def test_rank_one_outer_product_constraint(self, f4, f8):
        # if rank(E_ij + x^T y) = 1 with x, y nonzero, then x or y is the
        # matching standard basis direction (up to scalar)
        for tower, l, m in ((f4, 2, 2), (f8, 2, 3)):
            for i in range(l):
                for j in range(m):
                    E = Mat(tower, [[1 if (a, b) == (i, j) else 0
                                     for b in range(m)] for a in range(l)])
                    for x in itertools.product(range(2), repeat=l):
                        if not any(x):
                            continue
                        for y in itertools.product(range(2), repeat=m):
                            if not any(y):
                                continue
                            outer = Mat(tower, [[xi * yj for yj in y] for xi in x])
                            if rank(E + outer) == 1:
                                ei = tuple(1 if a == i else 0 for a in range(l))
                                ej = tuple(1 if b == j else 0 for b in range(m))
                                assert x == ei or y == ej

    def test_vec_matrix_factorisation_round_trip(self, f4):
        # one key per canonical map: the vector-action matrix determines the map
        table = {vec_matrix(f).rows: f for f in enumerate_mat_maps(f4, 2, 2)}
        assert len(table) == 72 == group_order(f4, 2, "mat-linear", m=2)
        for rows, f in table.items():
            assert vec_matrix(f).rows == rows

    def test_vec_matrix_action_agrees(self, f4):
        rnd = random.Random(8)
        maps = list(enumerate_mat_maps(f4, 2, 2))
        for f in rnd.sample(maps, 12):
            G = vec_matrix(f)
            for entries in itertools.product(range(2), repeat=4):
                A = Mat(f4, [entries[:2], entries[2:]])
                lhs = f.apply_mat(A)
                v = Mat(f4, [list(entries)])
                img = (v @ G).rows[0]
                assert lhs.rows == (img[:2], img[2:])

    @pytest.mark.parametrize("tower, l, m", [("f4", 2, 2), ("f8", 2, 3)])
    def test_vec_matrix_equals_product_form(self, request, tower, l, m):
        # every canonical linear map, transpose-flagged ones included for l = m
        t = request.getfixturevalue(tower)
        maps = list(enumerate_mat_maps(t, l, m))
        assert len(maps) == group_order(t, l, "mat-linear", m=m)
        for f in maps:
            assert vec_matrix(f) == vec_matrix_product(f)

    @pytest.mark.parametrize("spec, seed", [((3, 1, 2), 11), ((2, 2, 2), 12)],
                             ids=["F9", "F16-over-F4"])
    def test_vec_matrix_equals_product_form_sampled(self, spec, seed):
        t = make_tower(*spec)
        rnd = random.Random(seed)
        for f in rnd.sample(list(enumerate_mat_maps(t, 2, 2)), 40):
            assert vec_matrix(f) == vec_matrix_product(f)

    def test_vec_matrix_refuses_frobenius(self, f16_q4):
        f = MatMap(False, Mat.identity(f16_q4, 2), Mat.identity(f16_q4, 2), 1)
        with pytest.raises(BadParams, match="linear maps only"):
            vec_matrix(f)

    def test_oracle_guard(self, f16):
        with pytest.raises(TooLarge):
            rank_preserving_vec_maps(f16, 3, 3)


class TestMapText:
    def test_rm_round_trip(self, f16):
        rnd = random.Random(9)
        for _ in range(10):
            f = random_rm_map(f16, 2, rnd, semilinear=True)
            assert parse_map(f16, format_map(f)) == f

    def test_mat_round_trip(self, f16):
        rnd = random.Random(10)
        gl = list(enumerate_gl(f16, 2))
        for _ in range(10):
            f = MatMap(rnd.random() < 0.5, rnd.choice(gl), rnd.choice(gl))
            assert parse_map(f16, format_map(f)) == f
