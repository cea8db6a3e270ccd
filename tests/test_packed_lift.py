"""Lifting in the elimination kernel's row form, against the matrix lifting
kept in distance_law_oracle.

The library builds each lifted word as one combine of packed basis rows per
row, and a Subspace keeps its reduced basis packed, unpacking .mat only when
it is read.  Word by word, in message order, the lifts must equal the
oracle's, which intersperse each codeword Mat with unit pivot columns: the
same ==, hash, pivots and .mat rows, on F_2, F_3, F_4 (e = 2), F_9 (odd
e = 2) and F_5 entries, for codes of dimension 0, 1 and 2, at leading and
non-leading pivots.  The distance law, subspace distances and
SubspaceCode.min_distance must never read .mat.  unlift reads each word's
entries off its packed rows and must recover, in the same order, the code
that the oracle's unlift reads off the words' matrices.  parse_matrix
parses each distinct token once.
"""

import itertools
import random

import pytest

import distance_law_oracle as oracle
from rmcodes import (
    BadParams,
    Mat,
    MatrixCode,
    RmcodesError,
    Subspace,
    SubspaceCode,
    lift,
    make_tower,
    subspace_distance,
    unlift,
    verify_distance_law,
)
from rmcodes.codes import format_code_file
from rmcodes.elimination import flatten, span
from rmcodes.matrices import parse_matrix
from rmcodes.subspaces import _lift_spans

TOWERS = {
    "F_2 in F_16": (2, 1, 4, [1, 1, 0, 0, 1]),
    "F_3 in F_81": (3, 1, 4, None),
    "F_4 in F_16": (2, 2, 2, None),
    "F_9 in F_81": (3, 2, 2, None),
    "F_5 in F_125": (5, 1, 3, None),
}


def _tower(name):
    p, e, m, modulus = TOWERS[name]
    return make_tower(p, e, m, modulus)


def _random_code(tower, l, m, dim, rnd):
    base = tower.subfield_codes(1)
    s = span(tower, l * m)
    mats = []
    while len(mats) < dim:
        A = Mat(tower, [[rnd.choice(base) for _ in range(m)] for _ in range(l)],
                subdeg=1, check=False)
        if s.add(flatten(A.rows)):
            mats.append(A)
    return MatrixCode(tower, l, m, mats)


def _assert_same_words(got, want):
    assert len(got) == len(want)
    for u, v in zip(got, want):
        # the packed key first, before any .mat is unpacked
        assert u == v and hash(u) == hash(v)
        assert (u.dim, u.pivots) == (v.dim, v.pivots)
        assert u.mat.rows == v.mat.rows
    assert all(u != v for u, v in itertools.combinations(got, 2))  # lifting is injective


@pytest.mark.parametrize("name", sorted(TOWERS))
@pytest.mark.parametrize("dim", [0, 1, 2])
def test_lifts_match_oracle_word_by_word(name, dim):
    tower = _tower(name)
    rnd = random.Random(dim)
    for l, m in ((2, 2), (2, 3)):
        mc = _random_code(tower, l, m, dim, rnd)
        for pivots in itertools.combinations(range(1, l + m + 1), l):
            mats, want = oracle.lifted(mc, pivots)
            _assert_same_words(list(map(Subspace, _lift_spans(mc, pivots))), want)
            assert lift(mc, pivots).words == frozenset(want)


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_lifted_word_equals_subspace_of_its_matrix(name):
    tower = _tower(name)
    mc = _random_code(tower, 2, 3, 1, random.Random(7))
    for word in lift(mc, (2, 4)).words:
        again = Subspace(word.mat)
        assert again == word and hash(again) == hash(word)
        assert again.pivots == word.pivots and again.mat.rows == word.mat.rows


def test_distance_law_never_unpacks_a_basis(f16, monkeypatch):
    """A 64-word F_2 code: the law's lifts and its subspace distances run on
    the packed bases, so .mat patched to raise is never read."""
    mc = _random_code(f16, 2, 4, 6, random.Random(11))
    assert mc.size == 64
    want = oracle.verify_distance_law(mc, (2, 5))
    words = sorted(lift(mc, (1, 3)).words, key=lambda w: w.mat.rows)

    def trap(self):
        raise AssertionError("Subspace.mat was read")

    monkeypatch.setattr(Subspace, "mat", property(trap))
    assert verify_distance_law(mc, (2, 5)) == want
    fresh = list(map(Subspace, _lift_spans(mc, (1, 3))))
    assert {subspace_distance(u, v) for u, v in itertools.combinations(fresh, 2)} == {
        subspace_distance(u, v) for u, v in itertools.combinations(words, 2)}
    with pytest.raises(AssertionError, match="was read"):
        fresh[0].mat


def test_min_distance_never_unpacks_a_basis(f16, f81, monkeypatch):
    """min_distance orders the words by their packed bases and counts or
    eliminates on them, so .mat patched to raise is never read, on both
    sides of the mask width bound and in the list form."""
    rnd = random.Random(12)
    codes = [lift(_random_code(f16, 2, 4, 5, rnd), (1, 3)),
             lift(_random_code(f16, 2, 13, 3, rnd), (1, 2)),
             lift(_random_code(f81, 2, 3, 2, rnd), (2, 5)),
             lift(_random_code(_tower("F_4 in F_16"), 2, 2, 1, rnd), (1, 2))]
    want = [min(subspace_distance(u, v) for u, v in itertools.combinations(sc.words, 2))
            for sc in codes]

    def trap(self):
        raise AssertionError("Subspace.mat was read")

    monkeypatch.setattr(Subspace, "mat", property(trap))
    assert [sc.min_distance() for sc in codes] == want


# unlift files of one 2 x 3 code per row form, lifted at the leading pivots
# and at (2, 4), where most words' RREF pivots differ from the lift's
UNLIFT_BASES = {
    "F_2 in F_16": [[[1, 0, 1], [0, 1, 1]], [[0, 1, 0], [1, 1, 0]]],
    "F_3 in F_81": [[[1, 0, 2], [0, 2, 1]], [[0, 1, 0], [2, 1, 0]]],
    "F_4 in F_16": [[[1, 0, 6], [0, 7, 1]], [[0, 1, 0], [6, 1, 0]]],
}
UNLIFT_FILES = {
    ("F_2 in F_16", (1, 2)): "0,g^0,0;g^0,g^0,0\ng^0,0,g^0;0,g^0,g^0\n",
    ("F_2 in F_16", (2, 4)): "g^0,g^0,g^0;g^0,0,g^0\n0,g^0,0;g^0,g^0,0\n",
    ("F_3 in F_81", (1, 2)): "0,g^0,0;g^40,g^0,0\ng^0,0,g^40;0,g^40,g^0\n",
    ("F_3 in F_81", (2, 4)): "g^40,g^40,g^0;g^0,0,g^40\ng^0,g^40,g^40;g^0,g^0,g^0\n",
    ("F_4 in F_16", (1, 2)): "0,g^0,0;g^5,g^0,0\ng^0,0,g^5;0,g^10,g^0\n",
    ("F_4 in F_16", (2, 4)): "g^0,g^10,g^5;g^0,0,g^0\ng^10,g^10,g^0;g^0,g^0,g^10\n",
}


@pytest.mark.parametrize("name, pivots", sorted(UNLIFT_FILES))
def test_unlift_files_are_pinned(name, pivots):
    tower = _tower(name)
    mc = MatrixCode(tower, 2, 3, [Mat(tower, b, subdeg=1) for b in UNLIFT_BASES[name]])
    got, code = unlift(lift(mc, pivots))
    assert got == pivots
    head = f"matrix\n{tower.spec_string()}\nl=2,m=3,k=2\n"
    assert format_code_file(code) == head + UNLIFT_FILES[name, pivots]


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_unlift_matches_the_matrix_oracle(name):
    """The same pivots and basis, in the same order, as the unlift that reads
    every word's matrix, at every pivot set of 2 x 2 and 2 x 3 codes."""
    tower = _tower(name)
    rnd = random.Random(21)
    for l, m in ((2, 2), (2, 3)):
        for dim in (0, 1, 2):
            mc = _random_code(tower, l, m, dim, rnd)
            for pivots in itertools.combinations(range(1, l + m + 1), l):
                sc = lift(mc, pivots)
                got, want = unlift(sc), oracle.unlift(sc)
                assert got[0] == want[0] and got[1] == want[1]
                assert format_code_file(got[1]) == format_code_file(want[1])
    # words with no lift of the zero matrix, and a nonlinear set of words
    mc = _random_code(tower, 2, 2, 2, rnd)
    for pivots in ((1, 3), (1, 2)):
        bad = list(map(Subspace, _lift_spans(mc, pivots)))[1:]
        with pytest.raises(RmcodesError) as got:
            unlift(SubspaceCode(tower, 4, bad))
        with pytest.raises(RmcodesError) as want:
            oracle.unlift(SubspaceCode(tower, 4, bad))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


class TestParseMatrix:
    def test_repeated_tokens_parse_as_each_one(self, f16):
        M = parse_matrix(f16, "g^0,0,g^3;0,g^0,g^3;g^3,g^3,0", subdeg=4)
        assert M.rows == ((1, 0, 8), (0, 1, 8), (8, 8, 0))

    def test_first_bad_entry_is_reported(self, f16):
        # a repeated good token is skipped, the first bad one still raises first
        for text, message in (("g^0,g^0;g^0,g^2;g^1,g^2", "entry g^2 outside F_(q^1)"),
                              ("g^0,g^0;g^0,bad;x,g^0", "bad element literal: 'bad'")):
            with pytest.raises(BadParams) as err:
                parse_matrix(f16, text)
            assert str(err.value) == message

    def test_bool_entry_is_refused_beside_its_int(self, f16):
        # {1, True} is one set member, so the type check runs on every entry
        with pytest.raises(BadParams, match="True is not an integer code"):
            Mat(f16, [[1, True]])
        with pytest.raises(BadParams, match="outside"):
            Mat(f16, [[1, 1], [16, 1]])
