"""Expansion/compression, coordinates, and the structured matrices M_a, Q, P_r, K.

The structured matrices are the product forms tests/translation_oracle.py
keeps; these tests pin their defining identities and the group K they
generate, which rm_to_mat reads one image matrix at a time.
"""

import itertools
import random

import pytest

from rmcodes import (
    BadParams,
    IndependentTuple,
    Mat,
    MatrixCode,
    NotInSpan,
    OrderedBasis,
    TowerMismatch,
    compress,
    compress_code,
    expand_code,
    gabidulin,
    coords,
    expand,
    make_tower,
    power_basis,
    rank,
)
from rmcodes.fields import FieldElement, find_normal_element, normal_basis_from
from translation_oracle import KSubgroup, frobenius_matrix, mult_matrix as _mult_matrix
from translation_oracle import semilinear_matrix


def mult_matrix(alpha, b):
    return _mult_matrix(alpha.code, b)


def all_vectors(tower, l):
    for codes in itertools.product(range(tower.order), repeat=l):
        yield tuple(FieldElement(tower, c) for c in codes)


class TestExpandCompress:
    def test_basis_expands_to_identity(self, f16):
        b = power_basis(f16)
        assert expand(b.elements, b).is_identity()

    def test_f4_worked_coordinates(self, f4):
        # oracle: solve the two 2x2 coordinate systems by enumeration
        w = f4.generator
        b = power_basis(f4)
        targets = (w, f4.one + w)
        expected = []
        for t in targets:
            for c0 in (0, 1):
                for c1 in (0, 1):
                    if (b.elements[0] * FieldElement(f4, c0)
                            + b.elements[1] * FieldElement(f4, c1)) == t:
                        expected.append((c0, c1))
        assert expand(targets, b).rows == tuple(expected) == ((0, 1), (1, 1))

    def test_f16_single_row(self, f16):
        # w^5 = w + w^2 modulo 1 + t + t^4
        b = power_basis(f16)
        assert expand((f16.generator**5,), b).rows == ((0, 1, 1, 0),)

    def test_round_trips_exhaustive(self, f16):
        b = power_basis(f16)
        for l in (1, 2, 3):
            for vec in itertools.islice(all_vectors(f16, l), 300):
                X = expand(vec, b)
                assert compress(X, b) == vec
        zero = Mat(f16, [[0] * 4] * 2)
        assert all(x.code == 0 for x in compress(zero, b))
        assert compress(Mat.identity(f16, 4), b) == b.elements

    def test_rank_is_basis_independent(self, f16):
        b1 = power_basis(f16)
        w = f16.generator
        b2 = OrderedBasis((f16.one, w**5, w**2, w**7))
        rnd = random.Random(0)
        for _ in range(30):
            vec = tuple(FieldElement(f16, rnd.randrange(16)) for _ in range(3))
            assert rank(expand(vec, b1)) == rank(expand(vec, b2))

    def test_expand_is_fq_linear(self, f16):
        b = power_basis(f16)
        rnd = random.Random(1)
        for _ in range(20):
            x = tuple(FieldElement(f16, rnd.randrange(16)) for _ in range(2))
            y = tuple(FieldElement(f16, rnd.randrange(16)) for _ in range(2))
            sx = tuple(a + b_ for a, b_ in zip(x, y))
            assert expand(sx, b) == expand(x, b) + expand(y, b)


    def test_compress_refuses_a_basis_of_another_tower(self, f16):
        # f16 and g16 share p, e, m and element codes, but not arithmetic
        g16 = make_tower(2, 1, 4, [1, 0, 0, 1, 1])
        mc = expand_code(gabidulin(1, (f16.one, f16.generator**5)), power_basis(f16))
        other = power_basis(g16)
        with pytest.raises(TowerMismatch):
            compress(mc.basis[0], other)
        with pytest.raises(TowerMismatch):
            compress_code(mc, other)
        with pytest.raises(TowerMismatch):
            compress_code(MatrixCode(f16, 2, 4, []), other)

    def test_compress_refuses_a_width_other_than_m(self, f16):
        # the empty code is checked as the code with a basis matrix is
        b = power_basis(f16)
        one = Mat(f16, [[1, 0, 0], [0, 0, 0]])
        with pytest.raises(BadParams, match="3 columns"):
            compress_code(MatrixCode(f16, 2, 3, [one]), b)
        for mc in (MatrixCode(f16, 2, 3, []), MatrixCode(f16, 2, 5, [])):
            with pytest.raises(BadParams, match="columns, basis has 4"):
                compress_code(mc, b)


class TestCoords:
    def test_self_coordinates(self, f16):
        w = f16.generator
        g = IndependentTuple((f16.one, w**5))
        assert coords(g.elements, g).is_identity()

    def test_published_m_beta_columns(self, f16):
        w = f16.generator
        g = IndependentTuple((f16.one, w**5))
        assert coords((w**5, w**10), g).rows == ((0, 1), (1, 1))

    def test_not_in_span_by_enumeration(self, f16):
        # oracle: the span of (1, w^5) has exactly 4 elements; w is not one
        w = f16.generator
        g = IndependentTuple((f16.one, w**5))
        span = set()
        for c0 in (0, 1):
            for c1 in (0, 1):
                span.add((FieldElement(f16, c0) * f16.one
                          + FieldElement(f16, c1) * w**5).code)
        assert w.code not in span
        with pytest.raises(NotInSpan):
            coords((w,), g)


class TestMultMatrix:
    def test_one_is_identity(self, f16):
        assert mult_matrix(f16.one, power_basis(f16)).is_identity()

    def test_f4_value(self, f4):
        assert mult_matrix(f4.generator, power_basis(f4)).rows == ((0, 1), (1, 1))

    def test_f16_companion_matrix(self, f16):
        # oracle: rows are the expansions of w, w^2, w^3, w^4 = 1 + w
        b = power_basis(f16)
        M = mult_matrix(f16.generator, b)
        expected = tuple(expand((f16.generator**i,), b).rows[0] for i in (1, 2, 3, 4))
        assert M.rows == expected
        assert M.rows[3] == (1, 1, 0, 0)

    def test_defining_identity_exhaustive(self, f16):
        b = power_basis(f16)
        for alpha in (f16.generator**3, f16.generator**7):
            M = mult_matrix(alpha, b)
            for x in (FieldElement(f16, c) for c in range(f16.order)):
                assert expand((alpha * x,), b) == expand((x,), b) @ M

    def test_multiplicativity_and_invertibility(self, f16):
        b = power_basis(f16)
        w = f16.generator
        assert (mult_matrix(w**2, b) @ mult_matrix(w**5, b)
                == mult_matrix(w**7, b))
        assert rank(mult_matrix(f16.zero, b)) == 0
        for k in range(15):
            assert rank(mult_matrix(w**k, b)) == 4


class TestFrobeniusMatrix:
    def test_f4_value(self, f4):
        # rows are expansions of 1^2 = 1 and w^2 = 1 + w
        assert frobenius_matrix(power_basis(f4)).rows == ((1, 0), (1, 1))

    def test_normal_basis_gives_cyclic_shift(self, f64):
        b = normal_basis_from(find_normal_element(f64))
        Q = frobenius_matrix(b)
        m = f64.m
        expected = tuple(tuple(1 if j == (i + 1) % m else 0 for j in range(m))
                         for i in range(m))
        assert Q.rows == expected

    def test_order_m_on_random_bases(self, f16):
        rnd = random.Random(2)
        found = 0
        while found < 5:
            codes = [rnd.randrange(1, 16) for _ in range(4)]
            try:
                b = OrderedBasis(tuple(FieldElement(f16, c) for c in codes))
            except Exception:
                continue
            found += 1
            Q = frobenius_matrix(b)
            acc = Q
            for _ in range(3):
                assert not acc.is_identity()
                acc = acc @ Q
            assert acc.is_identity()

    def test_defining_identity(self, f16):
        b = power_basis(f16)
        Q = frobenius_matrix(b)
        for x in (FieldElement(f16, c) for c in range(f16.order)):
            assert expand((x**2,), b) == expand((x,), b) @ Q


class TestSemilinearMatrix:
    def test_r_zero_is_identity(self, f16, f16_q4):
        assert semilinear_matrix(power_basis(f16), 0).is_identity()
        b44 = OrderedBasis((f16_q4.one, f16_q4.generator))
        assert semilinear_matrix(b44, 0).is_identity()

    def test_prime_base_field_reduces_to_identity(self, f16):
        # e = 1: every r is 0 mod e
        assert semilinear_matrix(power_basis(f16), 3).is_identity()

    def test_q4_identity_exhaustive(self, f16_q4):
        b = OrderedBasis((f16_q4.one, f16_q4.generator))
        P1 = semilinear_matrix(b, 1)
        for x in (FieldElement(f16_q4, c) for c in range(f16_q4.order)):
            lhs = expand((x.frobenius(1),), b)
            rhs = (expand((x,), b) @ P1).frobenius(1)
            assert lhs == rhs

    def test_expand_left_multiplication(self, f16):
        # eps(x L) = L^T eps(x)
        from rmcodes import enumerate_gl
        b = power_basis(f16)
        rnd = random.Random(3)
        gl = list(enumerate_gl(f16, 2))
        for _ in range(10):
            L = rnd.choice(gl)
            x = tuple(FieldElement(f16, rnd.randrange(16)) for _ in range(2))
            xl = tuple(
                sum((x[i] * FieldElement(f16, L.rows[i][j]) for i in range(2)),
                    f16.zero)
                for j in range(2))
            assert expand(xl, b) == L.transpose() @ expand(x, b)


class TestKSubgroup:
    def test_f4_order(self, f4):
        mats = list(KSubgroup(power_basis(f4)).enumerate())
        assert f4.m * f4.mult_order == 6 == len(mats)
        assert len({M.rows for M in mats}) == 6

    def test_f16_order(self, f16):
        K = KSubgroup(power_basis(f16))
        assert len({M.rows for M in K.enumerate()}) == 60 == f16.m * f16.mult_order

    def test_commutation_rule(self, f16):
        b = power_basis(f16)
        Ma = mult_matrix(f16.generator, b)
        Q = frobenius_matrix(b)
        Maq = mult_matrix(f16.generator**2, b)
        assert Ma @ Q == Q @ Maq

    def test_trivial_intersection_and_identity(self, f16):
        b = power_basis(f16)
        K = KSubgroup(b)
        assert K.factor(Mat.identity(f16, 4)) == (0, 0)
        Q = frobenius_matrix(b)
        # <M_a> n <Q> = {I}: no Q power is a multiplication matrix except Q^0
        acc = Q
        for j in range(1, 4):
            hit = [k for k in range(15)
                   if mult_matrix(f16.gen_power(k), b) == acc]
            assert hit == []
            acc = acc @ Q

    def test_unique_factorisation(self, f4):
        K = KSubgroup(power_basis(f4))
        seen = {}
        for i in range(3):
            for j in range(2):
                M = (mult_matrix(f4.gen_power(i), power_basis(f4))
                     @ (frobenius_matrix(power_basis(f4)) if j else Mat.identity(f4, 2)))
                assert K.factor(M) == (i, j)
                assert M.rows not in seen
                seen[M.rows] = (i, j)

    def test_closed_under_product_and_inverse(self, f4):
        from rmcodes import inverse
        K = KSubgroup(power_basis(f4))
        mats = list(K.enumerate())
        for A in mats:
            assert K.factor(inverse(A)) is not None
            for B in mats:
                assert K.factor(A @ B) is not None

    def test_membership_rejects_outside(self, f16):
        K = KSubgroup(power_basis(f16))
        M = Mat(f16, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert K.factor(M) is None

    def test_membership_independent_of_primitive_choice(self, f16):
        # K is the same set whichever primitive element generates <M_alpha>:
        # the cyclic group of multiplication matrices is all of F_16^*
        b = power_basis(f16)
        K = KSubgroup(b)
        # g^7 is also primitive (gcd(7,15)=1); rebuild member set from it
        alt = set()
        base = f16.gen_power(7)
        Q = frobenius_matrix(b)
        for i in range(15):
            Mg = mult_matrix(base**i, b)
            acc = Mg
            for j in range(4):
                alt.add(acc.rows)
                acc = acc @ Q
        assert alt == {M.rows for M in K.enumerate()}
