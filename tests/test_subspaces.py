"""Subspace distance, lifting, unlifting, and the doubled-distance law."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcodes import (
    AmbientMismatch,
    BadParams,
    BadPivots,
    Mat,
    MatrixCode,
    MixedPivots,
    NonlinearCode,
    RmcodesError,
    Subspace,
    SubspaceCode,
    TooLarge,
    expand_code,
    gabidulin,
    lift,
    make_tower,
    power_basis,
    subspace_distance,
    unlift,
    verify_distance_law,
)
from rmcodes.elimination import flatten, span
from rmcodes.matrices import parse_matrix
from rmcodes.subspaces import format_subspace_file, parse_subspace_file


class TestSubspaceDistance:
    def test_equal_spaces(self, f4):
        U = Subspace(Mat(f4, [[1, 0], [0, 1]]))
        V = Subspace(Mat(f4, [[0, 1], [1, 0]]))
        assert U == V
        assert subspace_distance(U, V) == 0

    def test_three_lines_of_f2_squared(self, f4):
        lines = [Subspace(Mat(f4, [v])) for v in ([1, 0], [0, 1], [1, 1])]
        for i in range(3):
            for j in range(3):
                expected = 0 if i == j else 2
                assert subspace_distance(lines[i], lines[j]) == expected

    def test_nested(self, f4):
        U = Subspace(Mat(f4, [[1, 0]]))
        V = Subspace(Mat(f4, [[1, 0], [0, 1]]))
        assert subspace_distance(U, V) == 1

    def test_ambient_mismatch(self, f4):
        U = Subspace(Mat(f4, [[1, 0]]))
        V = Subspace(Mat(f4, [[1, 0, 0]]))
        with pytest.raises(AmbientMismatch):
            subspace_distance(U, V)

    def test_top_field_matrix_rejected(self, f16):
        # a matrix over a larger subfield spans no subspace of F_q^n
        g = f16.generator.code
        with pytest.raises(BadParams):
            Subspace(Mat(f16, [[g, 1]], subdeg=4))
        with pytest.raises(BadParams):
            Subspace(Mat(f16, [[1, 0]], subdeg=2))

    def test_metric_axioms_sampled(self, f4):
        rnd = random.Random(0)
        spaces = []
        while len(spaces) < 8:
            rows = [[rnd.randrange(2) for _ in range(4)] for _ in range(2)]
            S = Subspace(Mat(f4, rows))
            if S.dim:
                spaces.append(S)
        for U in spaces:
            for V in spaces:
                duv = subspace_distance(U, V)
                assert duv == subspace_distance(V, U)
                assert (duv == 0) == (U == V)
                for W in spaces:
                    assert duv <= (subspace_distance(U, W)
                                   + subspace_distance(W, V))


def _random_matrix_code(tower, l, m, dim, rnd):
    s = span(tower, l * m)
    mats = []
    while len(mats) < dim:
        A = Mat(tower, [[rnd.randrange(2) for _ in range(m)] for _ in range(l)],
                subdeg=1, check=False)
        if s.add(flatten(A.rows)):
            mats.append(A)
    return MatrixCode(tower, l, m, mats)


class TestLift:
    def test_zero_code(self, f4):
        mc = MatrixCode(f4, 2, 2, [])
        sc = lift(mc, (1, 2))
        assert sc.size == 1
        word = next(iter(sc.words))
        assert word.mat.rows == ((1, 0, 0, 0), (0, 1, 0, 0))

    def test_single_row_interspersal(self, f4):
        mc = MatrixCode(f4, 1, 2, [Mat(f4, [[1, 0]])])
        sc = lift(mc, (1,))
        mats = {w.mat.rows for w in sc.words}
        assert ((1, 1, 0),) in mats  # A = [1 0] interleaves to (1, 1, 0)

    def test_pivot_2_reextraction(self, f4):
        # lifting A = [1 0] at pivot column 2 also yields the row (1, 1, 0),
        # whose RREF pivot sits at column 1: re-extraction sees the drift
        mc = MatrixCode(f4, 1, 2, [Mat(f4, [[1, 0]])])
        sc = lift(mc, (2,))
        assert ((1, 1, 0),) in {w.mat.rows for w in sc.words}
        pivots = {w.pivots for w in sc.words}
        assert (1,) in pivots and (2,) in pivots  # mixed after canonicalisation

    def test_bad_pivots(self, f4):
        mc = MatrixCode(f4, 2, 2, [])
        for bad in ((1,), (2, 1), (1, 5), (1, 1)):
            with pytest.raises(BadPivots):
                lift(mc, bad)

    def test_injective(self, f16):
        rnd = random.Random(1)
        mc = _random_matrix_code(f16, 2, 3, 4, rnd)
        sc = lift(mc, (2, 4))
        assert sc.size == mc.size == 16


class TestUnlift:
    def test_round_trip_random(self, f16):
        rnd = random.Random(2)
        for _ in range(10):
            l = rnd.choice((1, 2, 3))
            m = rnd.choice((2, 3)) if l < 3 else 2
            dim = rnd.randrange(1, min(5, l * m + 1))
            mc = _random_matrix_code(f16, l, m, dim, rnd)
            pivots = tuple(range(1, l + 1))
            back_pivots, back = unlift(lift(mc, pivots))
            assert back_pivots == pivots
            assert back == mc

    @pytest.mark.parametrize("tower", ["f16", "f81"])
    def test_round_trip_any_pivots(self, request, tower):
        # away from the pivots 1..l the RREF pivots of lifted words differ
        # word by word; the lift of the zero matrix still names the pivots
        t = request.getfixturevalue(tower)
        rnd, codes, mixed = random.Random(7), t.subfield_codes(1), 0
        for _ in range(40):
            l, m = rnd.randint(1, 3), rnd.randint(1, 3)
            s, basis = span(t, l * m), []
            for _ in range(rnd.randint(0, min(3, l * m))):
                A = Mat(t, [[rnd.choice(codes) for _ in range(m)] for _ in range(l)])
                if s.add(flatten(A.rows)):
                    basis.append(A)
            mc = MatrixCode(t, l, m, basis)
            pivots = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
            sc = lift(mc, pivots)
            mixed += len({w.pivots for w in sc.words}) > 1
            assert unlift(sc) == (pivots, mc)
        assert mixed

    def test_pivots_from_the_zero_word(self, f4):
        # lifted at (1, 3): [[1, a, 0], [0, b, 1]] has RREF pivots (1, 2)
        # when b != 0
        zero = Subspace(Mat(f4, [[1, 0, 0], [0, 0, 1]]))
        word = Subspace(Mat(f4, [[1, 0, 0], [0, 1, 1]]))
        pivots, mc = unlift(SubspaceCode(f4, 3, [zero, word]))
        assert pivots == (1, 3)
        assert mc == MatrixCode(f4, 2, 1, [Mat(f4, [[0], [1]])])

    def test_differing_pivots_without_the_zero_word(self, f4):
        words = [Subspace(Mat(f4, [[1, 1, 0]])), Subspace(Mat(f4, [[0, 1, 1]]))]
        with pytest.raises(NonlinearCode, match="lift of the zero matrix"):
            unlift(SubspaceCode(f4, 3, words))

    def test_word_not_lifted_at_the_zero_words_pivots(self, f4):
        # P = (1,) from [1, 0, 0]; [0, 1, 1] has B_P = [0], which is singular
        words = [Subspace(Mat(f4, [[1, 0, 0]])), Subspace(Mat(f4, [[0, 1, 1]]))]
        with pytest.raises(MixedPivots, match=r"^pivot locations differ: \(1,\) vs \(2,\)$"):
            unlift(SubspaceCode(f4, 3, words))

    def test_mixed_pivots(self, f4):
        words = [Subspace(Mat(f4, [[1, 0, 0]])), Subspace(Mat(f4, [[0, 1, 0]]))]
        sc = SubspaceCode(f4, 3, words)
        with pytest.raises(MixedPivots):
            unlift(sc)

    def test_identity_block_form(self, f4):
        # a lifted code in [I_2 | A] block form recovers pivots (1, 2) and
        # the matrices A; with the zero word included the set is linear
        A = Mat(f4, [[1, 1], [0, 1]])
        words = [Subspace(Mat(f4, [[1, 0, 1, 1], [0, 1, 0, 1]])),
                 Subspace(Mat(f4, [[1, 0, 0, 0], [0, 1, 0, 0]]))]
        sc = SubspaceCode(f4, 4, words)
        pivots, mc = unlift(sc)
        assert pivots == (1, 2)
        assert mc.size == 2
        assert mc.contains(A)

    def test_nonlinear_auxiliary_set_rejected(self, f4):
        # a singleton {A} with A != 0 is not an F_q-subspace, so it has no
        # basis representation; unlift refuses rather than inflating the code
        from rmcodes.errors import NonlinearCode
        sc = SubspaceCode(f4, 4, [Subspace(Mat(f4, [[1, 0, 1, 1], [0, 1, 0, 1]]))])
        with pytest.raises(NonlinearCode):
            unlift(sc)

    def test_full_space_word_has_no_matrix_code(self, f4):
        # words of dimension n leave no columns for the l x m matrices
        sc = SubspaceCode(f4, 2, [Subspace(Mat(f4, [[1, 0], [0, 1]]))])
        with pytest.raises(BadParams, match="m=0"):
            unlift(sc)


class TestDistanceLaw:
    def test_singleton_vacuous(self, f4):
        mc = MatrixCode(f4, 2, 2, [])
        report = verify_distance_law(mc, (1, 2))
        assert report.pairs_checked == 0
        assert report.ds_min is None
        assert report.dr_min is None
        assert report.all_match

    @pytest.mark.parametrize("bad", [(0, 1), (1, 1), (1, 9), (1,), (2, 1)])
    def test_bad_pivots(self, f8, bad):
        # the same pivot check as lift, before any codeword is lifted
        mc = _random_matrix_code(f8, 2, 3, 2, random.Random(6))
        with pytest.raises(BadPivots):
            verify_distance_law(mc, bad)
        with pytest.raises(BadPivots):
            lift(mc, bad)

    def test_refuses_more_than_2_20_words_before_building_one(self, f8, monkeypatch):
        # the 3 x 7 F_2 matrices with one entry 1 span all 2^21 words
        units = [Mat(f8, [[int(k == 7 * i + j) for j in range(7)] for i in range(3)])
                 for k in range(21)]
        mc = MatrixCode(f8, 3, 7, units)
        assert mc.size == 2**21

        def no_words(self):
            raise AssertionError("a codeword was built")

        monkeypatch.setattr(MatrixCode, "codewords", no_words)
        monkeypatch.setattr(MatrixCode, "messages", no_words)
        with pytest.raises(TooLarge, match="2097152"):
            verify_distance_law(mc, (1, 2, 3))

    def test_refuses_more_than_2_20_pairs_before_building_a_word(self, f8, monkeypatch):
        # 2048 words make 2096128 pairs: under the words guard, over the pairs guard
        units = [Mat(f8, [[int(k == 4 * i + j) for j in range(4)] for i in range(3)])
                 for k in range(11)]
        mc = MatrixCode(f8, 3, 4, units)
        assert mc.size == 2048

        def no_words(self):
            raise AssertionError("a codeword was built")

        monkeypatch.setattr(MatrixCode, "codewords", no_words)
        monkeypatch.setattr(MatrixCode, "messages", no_words)
        with pytest.raises(TooLarge, match=r"^\|code\| = 2048 makes 2096128 pairs"):
            verify_distance_law(mc, (1, 2, 3))

    def test_expanded_gabidulin(self, f16):
        b = power_basis(f16)
        mc = expand_code(gabidulin(1, (f16.one, f16.generator**5)), b)
        report = verify_distance_law(mc, (1, 2))
        assert report.all_match
        assert report.ds_min == 4
        assert report.dr_min == 2

    def test_random_pairs_both_sides(self, f16):
        rnd = random.Random(3)
        for _ in range(10):
            mc = _random_matrix_code(f16, 3, 3, 3, rnd)
            report = verify_distance_law(mc, (1, 3, 5))
            assert report.all_match

    def test_pivot_independent_multiset(self, f16):
        rnd = random.Random(4)
        for _ in range(5):
            mc = _random_matrix_code(f16, 2, 3, 3, rnd)
            r1 = verify_distance_law(mc, (1, 2))
            r2 = verify_distance_law(mc, (2, 5))
            assert r1.distance_multiset == r2.distance_multiset


class TestSubspaceFiles:
    def test_round_trip(self, f16):
        rnd = random.Random(5)
        mc = _random_matrix_code(f16, 2, 3, 3, rnd)
        sc = lift(mc, (1, 3))
        assert parse_subspace_file(format_subspace_file(sc)) == sc

    def test_zero_subspace_round_trip(self, f16):
        # the dim-0 word has no basis rows; it is written as a row of zeros,
        # since a blank line would be skipped and the word lost
        sc = SubspaceCode(f16, 3, [Subspace(Mat(f16, [[0, 0, 0]], subdeg=1))])
        text = format_subspace_file(sc)
        assert text.splitlines()[2:] == ["n=3,l=0", "0,0,0"]
        again = parse_subspace_file(text)
        assert again == sc and again.size == 1 and again.dim == 0

    @pytest.mark.parametrize("body, named", [
        (["1,0", "1,0"], "words 1 and 2 ('1,0', '1,0')"),
        # two bases of one plane, apart from a word that differs
        (["1,0,0;0,1,0", "0,1,1;0,0,1", "1,1,0;0,1,0"],
         "words 1 and 3 ('1,0,0;0,1,0', '1,1,0;0,1,0')"),
    ])
    def test_repeated_word_is_refused(self, body, named):
        # a set would merge the two lines into one word and shrink the code
        tower = make_tower(2, 1, 4)
        words = [Subspace(parse_matrix(tower, w)) for w in body]
        n, l = words[0].n, words[0].dim
        text = "\n".join(["subspace", "gf(2,1,4)", f"n={n},l={l}", *body]) + "\n"
        with pytest.raises(BadParams, match=re.escape(named)):
            parse_subspace_file(text)
        # the constructor keeps its set semantics
        assert SubspaceCode(tower, n, words).size == len(body) - 1


@st.composite
def _lifted_codes(draw):
    tower = make_tower(*draw(st.sampled_from([(2, 1, 2), (2, 1, 3), (3, 1, 2)])))
    l, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    mc = _random_matrix_code(tower, l, m, draw(st.integers(0, min(l * m, 3))),
                             random.Random(draw(st.integers(0, 2**32))))
    pivots = sorted(draw(st.sets(st.integers(1, l + m), min_size=l, max_size=l)))
    return lift(mc, pivots)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_lifted_codes(), st.sampled_from([
    "n={n1},l={l}", "n={n0},l={l}", "n={n},l={l1}", "n={n},l={l0}",
    "n={n}", "l={l}", "n={n},k={l}"]))
def test_subspace_file_round_trip(sc, bad_shape):
    text = format_subspace_file(sc)
    assert parse_subspace_file(text) == sc
    lines = text.splitlines()
    lines[2] = bad_shape.format(n=sc.n, n1=sc.n + 1, n0=sc.n - 1,
                                l=sc.dim, l1=sc.dim + 1, l0=sc.dim - 1)
    with pytest.raises(RmcodesError):
        parse_subspace_file("\n".join(lines))
