"""Gabidulin construction, distances, expansion of codes."""

import itertools
import random

import pytest

from rmcodes import (
    BadParams,
    DependentVector,
    IndependentTuple,
    Mat,
    MatrixCode,
    NonlinearCode,
    RankMetricCode,
    TooLarge,
    compress_code,
    expand,
    expand_code,
    gabidulin,
    matrix_code,
    min_rank_distance,
    power_basis,
    rank,
    rank_weight,
)
from rmcodes.codes import format_code_file, parse_code_file
from rmcodes.fields import FieldElement, make_tower


class TestGabidulin:
    def test_f16_one_dimensional(self, f16):
        w = f16.generator
        code = gabidulin(1, (f16.one, w**5))
        assert code.gen.rows == ((f16.one.code, (w**5).code),)
        words = set(code.codeword_codes())
        assert len(words) == 16 == code.size
        expected = {(0, 0)} | {((w**i).code, (w**i * w**5).code) for i in range(15)}
        assert words == expected

    def test_f64_second_row_squares(self, f64):
        # oracle: exponents double modulo 63 under the q-power map
        w = f64.generator
        exps = (37, 42, 16, 1)
        code = gabidulin(2, tuple(w**k for k in exps))
        expected = tuple((w**(2 * k % 63)).code for k in exps)
        assert code.gen.rows[1] == expected

    def test_shape_violation(self, f4):
        w = f4.generator
        with pytest.raises(BadParams):
            gabidulin(2, (f4.one, w, f4.one + w))  # l = 3 > m = 2

    def test_dependent_vector(self, f16):
        w = f16.generator
        with pytest.raises(DependentVector):
            gabidulin(1, (w, w))

    def test_k_must_fit(self, f16):
        w = f16.generator
        with pytest.raises(BadParams):
            gabidulin(3, (f16.one, w**5))


class TestRankWeight:
    def test_zero(self, f16):
        b = power_basis(f16)
        assert rank_weight((f16.zero, f16.zero), b) == 0

    def test_independent_pair(self, f4):
        b = power_basis(f4)
        assert rank_weight((f4.one, f4.generator), b) == 2

    def test_constant_vector(self, f16):
        b = power_basis(f16)
        assert rank_weight((f16.one,) * 5, b) == 1


class TestMinRankDistance:
    def test_f16_by_naive_scan(self, f16):
        # oracle: scan all 15 nonzero codewords, compute each weight by
        # expansion without going through min_rank_distance
        w = f16.generator
        code = gabidulin(1, (f16.one, w**5))
        b = power_basis(f16)
        weights = set()
        for i in range(15):
            word = (w**i, w**i * w**5)
            weights.add(rank(expand(word, b)))
        assert min(weights) == 2
        assert min_rank_distance(code) == 2

    def test_mrd_small_grid(self):
        rnd = random.Random(0)
        for m in (3, 4):
            tower = make_tower(2, 1, m)
            for l in (2, 3):
                if l >= m:
                    continue
                for k in range(1, l):
                    for _ in range(5):
                        g = _random_gab_vector(tower, l, rnd)
                        code = gabidulin(k, g)
                        assert min_rank_distance(code) == l - k + 1

    def test_e11_span(self, f4):
        mc = MatrixCode(f4, 1, 2, [Mat(f4, [[1, 0]])])
        assert min_rank_distance(mc) == 1

    def test_guard(self, f16):
        w = f16.generator
        code = gabidulin(2, (f16.one, w, w**2))
        with pytest.raises(TooLarge):
            min_rank_distance(code, guard=100)

    def test_metric_axioms_sampled(self, f16):
        b = power_basis(f16)
        rnd = random.Random(1)
        vecs = [tuple(FieldElement(f16, rnd.randrange(16)) for _ in range(2))
                for _ in range(12)]
        for x in vecs:
            for y in vecs:
                dxy = rank_weight(tuple(a - c for a, c in zip(x, y)), b)
                assert dxy == rank_weight(tuple(c - a for a, c in zip(x, y)), b)
                assert (dxy == 0) == (x == y)
                for z in vecs:
                    dxz = rank_weight(tuple(a - c for a, c in zip(x, z)), b)
                    dzy = rank_weight(tuple(a - c for a, c in zip(z, y)), b)
                    assert dxy <= dxz + dzy


def _random_gab_vector(tower, l, rnd):
    while True:
        els = tuple(FieldElement(tower, rnd.randrange(1, tower.order))
                    for _ in range(l))
        try:
            return IndependentTuple(els)
        except DependentVector:
            continue


class TestExpandCode:
    def test_round_trip_codeword_sets(self, f16):
        w = f16.generator
        b = power_basis(f16)
        code = gabidulin(1, (f16.one, w**5))
        mc = expand_code(code, b)
        back = compress_code(mc, b)
        assert back == code

    def test_dimension(self, f16):
        w = f16.generator
        b = power_basis(f16)
        mc = expand_code(gabidulin(1, (f16.one, w**5)), b)
        assert mc.dim == 4  # log_2 16
        assert mc.size == 16

    def test_distance_invariance_random(self, f16):
        rnd = random.Random(2)
        b = power_basis(f16)
        for _ in range(5):
            g = _random_gab_vector(f16, 2, rnd)
            code = gabidulin(1, g)
            mc = expand_code(code, b)
            assert min_rank_distance(mc) == min_rank_distance(code)

    def test_sizes_and_spectra(self, f8):
        b = power_basis(f8)
        code = gabidulin(1, (f8.one, f8.generator))
        mc = expand_code(code, b)
        assert mc.size == code.size
        spec_rm = sorted(
            _pairwise_rank_distances([list(wd) for wd in code.codeword_codes()], f8))
        spec_mat = sorted(
            rank(A - B) for A, B in
            itertools.combinations(list(mc.codewords()), 2))
        assert spec_rm == spec_mat


def _pairwise_rank_distances(words, tower):
    out = []
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            diff = [tower.sub(a, b) for a, b in zip(words[i], words[j])]
            out.append(tower.fq_rank([tower.fq_coords(c) for c in diff]))
    return out


class TestExtensionLinearity:
    def test_expanded_codes_are_linear(self, f16):
        w = f16.generator
        b = power_basis(f16)
        code = gabidulin(1, (f16.one, w**5))
        assert compress_code(expand_code(code, b), b) == code

    def test_e11_span_is_not(self, f4):
        # oracle: the F_4-span of the compressed element has 4 elements
        # while the code has only 2
        b = power_basis(f4)
        mc = MatrixCode(f4, 1, 2, [Mat(f4, [[1, 0]])])
        assert mc.size == 2
        from rmcodes import compress
        x = compress(Mat(f4, [[1, 0]]), b)[0]
        span = {(y * x).code for y in (FieldElement(f4, c) for c in range(f4.order))}
        assert len(span) == 4
        with pytest.raises(NonlinearCode):
            compress_code(mc, b)

    def test_full_f64_code_compresses(self, f64):
        # the whole of F_64^5 (2^30 words): the test is one rank, no scan
        b = power_basis(f64)
        code = RankMetricCode(Mat.identity(f64, 5, subdeg=6))
        mc = expand_code(code, b)
        assert mc.size == 2**30
        assert compress_code(mc, b) == code


class TestCodeEquality:
    def test_same_span_different_generators(self, f16):
        w = f16.generator
        c1 = RankMetricCode(Mat(f16, [[1, (w**5).code]], subdeg=4))
        c2 = RankMetricCode(Mat(f16, [[(w**3).code, (w**8).code]], subdeg=4))
        assert c1 == c2  # second generator is w^3 times the first

    def test_different_codes(self, f16):
        w = f16.generator
        c1 = gabidulin(1, (f16.one, w**5))
        c2 = gabidulin(1, (f16.one, w))
        assert c1 != c2


class TestMembership:
    def test_wrong_length_is_not_a_codeword(self, f16):
        """A vector of another length than l is no codeword, whatever its
        entries: no IndexError, and no match on a codeword prefix."""
        code = gabidulin(1, (f16.one, f16.generator**5))
        word = code.gen.rows[0]
        assert code.contains_codes(word)
        for vec in ((1,), (1, 2, 3), word + (1,), ()):
            assert not code.contains_codes(vec)
            assert not code.contains([FieldElement(f16, c) for c in vec])


class TestCodeFiles:
    def test_gabidulin_round_trip(self, f16):
        w = f16.generator
        code = gabidulin(1, (f16.one, w**5))
        assert parse_code_file(format_code_file(code)) == code

    def test_matrix_round_trip(self, f16):
        b = power_basis(f16)
        mc = expand_code(gabidulin(1, (f16.one, f16.generator**5)), b)
        parsed = parse_code_file(format_code_file(mc))
        assert parsed == mc

    def test_rankmetric_round_trip(self, f8):
        code = RankMetricCode(Mat(f8, [[1, 2], [2, 5]], subdeg=3))
        assert parse_code_file(format_code_file(code)) == code

    def test_bad_header(self):
        with pytest.raises(BadParams):
            parse_code_file("nonsense\ngf(2,1,2)\nl=1,m=2,k=1\n")

    def test_matrix_code_helper(self, f4):
        mc = matrix_code([Mat(f4, [[1, 0], [0, 0]]), Mat(f4, [[0, 1], [0, 0]])])
        assert mc.dim == 2
