"""Exact linear algebra: RREF, rank, inversion, GL and positions in it; the
Kronecker products of the vector-matrix oracle."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcodes import (
    BadParams,
    Mat,
    Singular,
    ShapeMismatch,
    TooLarge,
    element_order,
    enumerate_gl,
    gl_order,
    gl_rank,
    inverse,
    make_tower,
    rank,
    rref,
)
from rmcodes import matrices
from rmcodes.elimination import decompose, solver, span
from rmcodes.matrices import (
    _gl_members,
    format_matrix,
    parse_matrix,
)
from gl_oracle import first_nonzero, gl_unrank, span_members
from vec_oracle import kronecker


def vecrow(M):
    out = []
    for r in M.rows:
        out.extend(r)
    return tuple(out)


class TestRref:
    def test_identity(self, f4):
        res = rref(Mat.identity(f4, 3))
        assert res.rref.is_identity()
        assert res.pivots == (1, 2, 3)
        assert res.rank == 3

    def test_duplicate_rows(self, f4):
        res = rref(Mat(f4, [[1, 1], [1, 1]]))
        assert res.rref.rows == ((1, 1), (0, 0))
        assert res.pivots == (1,)

    def test_f4_full_rank_by_determinant(self, f4):
        # oracle: 2x2 determinant w*w - 1 = w+1+1 = w != 0 over F_4
        w = f4.generator
        M = Mat(f4, [[w.code, 1], [1, w.code]], subdeg=2)
        det = w * w - f4.one * f4.one
        assert det.code != 0
        assert rank(M) == 2

    def test_idempotent_and_row_space_preserved(self, f16):
        rnd = random.Random(0)
        for _ in range(25):
            M = Mat(f16, [[rnd.randrange(2) for _ in range(4)] for _ in range(3)])
            res = rref(M)
            assert rref(res.rref).rref == res.rref
            # every original row lies in the row space of the RREF
            if res.rank:
                decompose(solver(f16, res.rref.rows, res.rref.ncols), M.rows)

    def test_pivot_columns_are_unit_vectors(self, f16):
        rnd = random.Random(1)
        for _ in range(10):
            M = Mat(f16, [[rnd.randrange(2) for _ in range(5)] for _ in range(3)])
            res = rref(M)
            for s, p in enumerate(res.pivots):
                col = [res.rref.rows[i][p - 1] for i in range(res.rref.nrows)]
                assert col == [1 if i == s else 0 for i in range(res.rref.nrows)]


class TestRank:
    def test_zero_and_units(self, f4):
        assert rank(Mat(f4, [[0] * 3] * 2)) == 0
        for i in range(2):
            for j in range(3):
                E = [[1 if (a, b) == (i, j) else 0 for b in range(3)] for a in range(2)]
                assert rank(Mat(f4, E)) == 1

    def test_published_6x6_matrix_invertible(self, f64):
        M = Mat(f64, [[1, 0, 0, 0, 1, 0], [1, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1],
                      [0, 1, 1, 0, 0, 0], [1, 1, 1, 0, 1, 1], [1, 0, 0, 1, 0, 0]])
        assert rank(M) == 6

    def test_transpose_invariance(self, f16):
        rnd = random.Random(2)
        for _ in range(20):
            M = Mat(f16, [[rnd.randrange(2) for _ in range(4)] for _ in range(3)])
            assert rank(M) == rank(M.transpose())

    def test_subadditivity_sampled(self, f4):
        rnd = random.Random(3)
        for _ in range(100):
            A = Mat(f4, [[rnd.randrange(2) for _ in range(3)] for _ in range(3)])
            B = Mat(f4, [[rnd.randrange(2) for _ in range(3)] for _ in range(3)])
            assert rank(A @ B) <= min(rank(A), rank(B))
            assert rank(A + B) <= rank(A) + rank(B)


class TestInverse:
    def test_identity(self, f4):
        assert inverse(Mat.identity(f4, 3)).is_identity()

    def test_2x2_adjugate_oracle(self, f4):
        # [[0,1],[1,1]] over F_2: adjugate/det gives [[1,1],[1,0]]
        M = Mat(f4, [[0, 1], [1, 1]])
        assert inverse(M).rows == ((1, 1), (1, 0))

    def test_singular(self, f4):
        with pytest.raises(Singular):
            inverse(Mat(f4, [[1, 1], [1, 1]]))

    def test_both_sides(self, f81):
        rnd = random.Random(4)
        gl = list(enumerate_gl(f81, 2))
        for M in rnd.sample(gl, 10):
            assert (M @ inverse(M)).is_identity()
            assert (inverse(M) @ M).is_identity()


class TestKronecker:
    def test_identities(self, f4):
        assert kronecker(Mat.identity(f4, 2), Mat.identity(f4, 3)).is_identity()

    def test_scalar_rebalancing(self, f81):
        # lambda I_l (x) lambda^-1 I_m = I_(lm) for lambda in F_q*
        lam = 2  # the element 2 of F_3
        lam_inv = f81.inv(lam)
        L = Mat(f81, [[lam if i == j else 0 for j in range(2)] for i in range(2)])
        M = Mat(f81, [[lam_inv if i == j else 0 for j in range(3)] for i in range(3)])
        assert kronecker(L, M).is_identity()

    def test_vec_row_convention(self, f4):
        # P (x) R acts on concatenated rows as A -> P^T A R
        rnd = random.Random(5)
        gl2 = list(enumerate_gl(f4, 2))
        gl3 = list(enumerate_gl(f4, 3))
        for _ in range(10):
            P = rnd.choice(gl2)
            R = rnd.choice(gl3)
            A = Mat(f4, [[rnd.randrange(2) for _ in range(3)] for _ in range(2)])
            lhs = vecrow(P.transpose() @ A @ R)
            v = Mat(f4, [vecrow(A)])
            rhs = (v @ kronecker(P, R)).rows[0]
            assert lhs == rhs

    def test_mixed_product(self, f4):
        rnd = random.Random(6)
        for _ in range(10):
            A, C = (Mat(f4, [[rnd.randrange(2) for _ in range(2)] for _ in range(2)])
                    for _ in range(2))
            B, D = (Mat(f4, [[rnd.randrange(2) for _ in range(3)] for _ in range(3)])
                    for _ in range(2))
            assert kronecker(A, B) @ kronecker(C, D) == kronecker(A @ C, B @ D)


class TestEnumerateGl:
    def test_counts(self, f81, f4):
        assert sum(1 for _ in enumerate_gl(f81, 2)) == 48 == gl_order(3, 2)
        assert sum(1 for _ in enumerate_gl(f4, 2)) == 6 == gl_order(2, 2)
        assert sum(1 for _ in enumerate_gl(f4, 1)) == 1  # q - 1 scalars
        assert sum(1 for _ in enumerate_gl(f81, 1)) == 2
        assert [M.shape() for M in enumerate_gl(f4, 0)] == [(0, 0)]

    def test_all_invertible_and_distinct(self, f81):
        seen = set()
        for M in enumerate_gl(f81, 2):
            assert rank(M) == 2
            assert M.rows not in seen
            seen.add(M.rows)

    def test_lexicographic_order(self, f4):
        mats = [M.rows for M in enumerate_gl(f4, 2)]
        flat = [tuple(x for row in rows for x in row) for rows in mats]
        assert flat == sorted(flat)

    def test_guard(self, f64, f16_q4):
        # the guard counts the matrices walked, |GL_n(F_q)|, and refuses
        # at the first step, before anything is yielded
        for tower, n, q in ((f64, 6, 2), (f16_q4, 5, 4)):
            walk = enumerate_gl(tower, n)
            with pytest.raises(TooLarge, match=f"= {gl_order(q, n)} matrices exceed"):
                next(walk)
        # GL_5(F_2) holds about 10^7 matrices, under the guard: it starts
        # (walking it all would take about a minute)
        first = next(enumerate_gl(f64, 5))
        assert first.rows == tuple(tuple(int(i + j == 4) for j in range(5)) for i in range(5))


class TestElementOrder:
    def test_identity(self, f4):
        assert element_order(Mat.identity(f4, 3)) == 1

    def test_no_order_16_in_gl2_f3(self, f81):
        orders = {element_order(M) for M in enumerate_gl(f81, 2)}
        assert 16 not in orders
        assert 8 in orders  # the maximal 2-power that does occur

    def test_unipotent_cube(self, f81):
        # oracle: cube the matrix directly
        M = Mat(f81, [[1, 1], [0, 1]])
        assert not (M @ M).is_identity()
        assert (M @ M @ M).is_identity()
        assert element_order(M) == 3

    def test_refused_past_the_guard(self, f81, monkeypatch):
        M = Mat(f81, [[1, 1], [0, 1]])
        monkeypatch.setattr(matrices, "DEFAULT_GUARD", 3)
        assert element_order(M) == 3
        monkeypatch.setattr(matrices, "DEFAULT_GUARD", 2)
        with pytest.raises(TooLarge, match=r"^matrix order exceeds guard 2$"):
            element_order(M)

    def test_singular_rejected(self, f4):
        with pytest.raises(Singular):
            element_order(Mat(f4, [[1, 1], [1, 1]]))


class TestTextForm:
    def test_round_trip(self, f16):
        rnd = random.Random(7)
        for _ in range(5):
            M = Mat(f16, [[rnd.randrange(2) for _ in range(3)] for _ in range(2)])
            assert parse_matrix(f16, format_matrix(M)) == M
        Mtop = Mat(f16, [[3, 7], [0, 1]], subdeg=4)
        assert parse_matrix(f16, format_matrix(Mtop), subdeg=4) == Mtop


class TestCheckingConstructor:
    """The checked path outside input takes (parse_matrix, code files)."""

    @pytest.mark.parametrize("rows, subdeg, match", [
        ([[-1]], 4, "code -1 outside"),
        ([[99]], 1, "code 99 outside"),
        ([[-15]], 1, "code -15 outside"),
        ([[16]], 4, "code 16 outside"),
        ([[1]], 0, "subfield degree 0"),
        ([[1]], -2, "subfield degree -2"),
        ([[1.0]], 1, "1.0 is not an integer code"),
        ([["1"]], 1, "'1' is not an integer code"),
        ([[True]], 1, "True is not an integer code"),
    ])
    def test_checking_constructor_refuses_bad_codes(self, f16, rows, subdeg, match):
        with pytest.raises(BadParams, match=match):
            Mat(f16, rows, subdeg=subdeg)

    def test_parse_refuses_subfield_degree_zero(self, f16):
        with pytest.raises(BadParams, match="subfield degree 0"):
            parse_matrix(f16, "g^1", subdeg=0)

    def test_unchecked_constructor_trusts_its_codes(self, f16):
        assert Mat(f16, [[99]], check=False).rows == ((99,),)


# F_2 up to n = 4, F_3 up to n = 3, and F_4 as gf(2,2,2), where the codes of
# the base field are 0, 1, 2, 3 in the tower but not the digits 0..q-1
GL_SHAPES = ([((2, 1, 3), n) for n in range(1, 5)] + [((3, 1, 2), n) for n in range(1, 4)]
             + [((2, 2, 2), n) for n in range(1, 3)])


@functools.cache
def _gl(spec, n, leading_one):
    """enumerate_gl's list; the leading-one one filtered from the full list."""
    mats = tuple(enumerate_gl(make_tower(*spec), n))
    return tuple(M for M in mats if first_nonzero(M.rows) == 1) if leading_one else mats


class TestGlRank:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(GL_SHAPES), st.booleans(), st.data())
    def test_rank_is_the_enumeration_index(self, shape, leading_one, data):
        spec, n = shape
        mats = _gl(spec, n, leading_one)
        i = data.draw(st.integers(0, len(mats) - 1))
        assert gl_rank(mats[i], leading_one) == i
        assert gl_unrank(make_tower(*spec), n, i, leading_one) == mats[i]

    @pytest.mark.parametrize("spec, n", [((2, 1, 3), 3), ((3, 1, 2), 2), ((2, 2, 2), 2)])
    def test_every_index_of_small_groups(self, spec, n):
        for leading_one in (False, True):
            mats = _gl(spec, n, leading_one)
            assert [gl_rank(M, leading_one) for M in mats] == list(range(len(mats)))
            assert tuple(enumerate_gl(make_tower(*spec), n, leading_one)) == mats

    def test_refusals(self, f4, f81):
        with pytest.raises(Singular):
            gl_rank(Mat(f4, [[1, 1], [1, 1]]))
        with pytest.raises(Singular):
            gl_rank(Mat(f81, [[1, 2, 0], [2, 1, 0], [0, 0, 1]]), leading_one=True)
        with pytest.raises(Singular):
            gl_rank(Mat(f4, [[0, 0], [0, 0]]))
        with pytest.raises(BadParams):  # first nonzero entry 2, not 1
            gl_rank(Mat(f81, [[2, 0], [0, 1]]), leading_one=True)
        with pytest.raises(BadParams):
            gl_rank(Mat.identity(f4, 2, subdeg=2))
        with pytest.raises(ShapeMismatch):
            gl_rank(Mat(f4, [[1, 0, 0], [0, 1, 0]]))


@st.composite
def spans(draw):
    """(tower, basis, n): up to n^2 random rows of n x n row-major entries."""
    spec, n = draw(st.sampled_from([((2, 1, 3), 3), ((3, 1, 2), 2), ((2, 2, 2), 2)]))
    tower = make_tower(*spec)
    entry = st.sampled_from(tower.subfield_codes(1))
    rows = draw(st.lists(st.lists(entry, min_size=n * n, max_size=n * n), max_size=n * n))
    basis = [r for r in rows if span(tower, n * n, 1, [r]).rank]  # nonzero rows
    return tower, span(tower, n * n, 1, basis).rows(), n


@settings(derandomize=True, max_examples=80, deadline=None)
@given(spans(), st.booleans())
def test_span_members_in_gl_order(drawn, leading_one):
    # the invertible members of a span, each once, in enumerate_gl's order
    tower, basis, n = drawn
    assert list(_gl_members(tower, basis, n, leading_one)) == \
        span_members(tower, basis, n, leading_one)
