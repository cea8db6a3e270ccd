"""verify_distance_law and SubspaceCode.min_distance against pairwise scans.

verify_distance_law takes one rank per codeword and reads each pair's
through the place of its difference message; the oracle takes a rank per
pair.  All five report fields must agree on criterion 5's 100 F_2 codes at
both pivot sets, on F_3 codes in F_81, on F_4 codes in F_16 over F_4 and F_9
codes in F_81 over F_9 (e = 2), on the zero code and on dimension 1.  A
derandomized Hypothesis property checks that min_distance, which stops at
the floor 2, equals the full pairwise minimum on random subspace codes,
lifts or not, with None below two words; its guard bounds the words and
then the pairs it compares.  The law scans the lifts' spans and builds no
Subspace.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distance_law_oracle as oracle
from rmcodes import (
    BadParams,
    Mat,
    MatrixCode,
    Subspace,
    SubspaceCode,
    TooLarge,
    lift,
    make_tower,
    subspace_distance,
    verify_distance_law,
)
from rmcodes import subspaces
from rmcodes.elimination import flatten, span


def _random_code(tower, l, m, dim, rnd):
    """dim independent l x m matrices with entries drawn from F_q."""
    base = tower.subfield_codes(1)
    s = span(tower, l * m)
    mats = []
    while len(mats) < dim:
        A = Mat(tower, [[rnd.choice(base) for _ in range(m)] for _ in range(l)],
                subdeg=1, check=False)
        if s.add(flatten(A.rows)):
            mats.append(A)
    return MatrixCode(tower, l, m, mats)


def _criterion_5_cases(f16):
    """The 100 codes and pivot pairs of acceptance criterion 5, same draws."""
    rnd = random.Random(0)
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
        piv1 = tuple(range(1, l + 1))
        piv2 = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        while piv2 == piv1:
            piv2 = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        yield MatrixCode(f16, l, m, mats), piv1, piv2


def _assert_same(mc, pivots):
    got = verify_distance_law(mc, pivots)
    assert got == oracle.verify_distance_law(mc, pivots)
    return got


def test_criterion_5_codes_match_oracle(f16):
    for mc, piv1, piv2 in _criterion_5_cases(f16):
        assert _assert_same(mc, piv1).all_match
        assert _assert_same(mc, piv2).all_match


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_f3_codes_match_oracle(f81, dim):
    rnd = random.Random(30 + dim)
    for l, m in itertools.product((2, 3), (3, 4)):
        mc = _random_code(f81, l, m, dim, rnd)
        pivots = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        assert _assert_same(mc, pivots).all_match


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_e2_tower_codes_match_oracle(f16_q4, dim):
    assert f16_q4.q == 4
    rnd = random.Random(40 + dim)
    for l, m in ((2, 2), (2, 3)):
        mc = _random_code(f16_q4, l, m, dim, rnd)
        pivots = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        assert _assert_same(mc, pivots).all_match


@pytest.mark.parametrize("dim", [1, 2])
def test_odd_e2_tower_codes_match_oracle(f81_q9, dim):
    """F_9 in F_81: the base-field codes are neither 0..q-1 nor added by
    XOR, so this is where a wrong difference place would show.  min_distance
    of the lift is the oracle's pairwise minimum."""
    assert f81_q9.subfield_codes(1) == (0, 1, 2, 42, 43, 44, 75, 76, 77)
    rnd = random.Random(60 + dim)
    for l, m in ((2, 2), (2, 3)):
        mc = _random_code(f81_q9, l, m, dim, rnd)
        pivots = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        report = _assert_same(mc, pivots)
        assert report.all_match
        assert lift(mc, pivots).min_distance() == report.ds_min


def test_zero_and_one_dimensional_codes_match_oracle(f16, f81):
    zero = _assert_same(MatrixCode(f16, 2, 3, []), (1, 2))
    assert (zero.pairs_checked, zero.ds_min, zero.dr_min) == (0, None, None)
    rnd = random.Random(50)
    for tower in (f16, f81):
        line = _assert_same(_random_code(tower, 2, 3, 1, rnd), (2, 4))
        assert line.pairs_checked == tower.q * (tower.q - 1) // 2


TOWERS = [make_tower(2, 1, 2), make_tower(3, 1, 2), make_tower(2, 2, 2)]


def _pairwise_min(sc):
    ds = [subspace_distance(u, v) for u, v in itertools.combinations(sc.words, 2)]
    return min(ds, default=None)


@st.composite
def subspace_codes(draw):
    """Words of one dimension k in F_q^n, each the row space of [I_k | X]
    with its columns permuted, so that pivots differ between words and most
    codes are not lifts; up to 6 words, so 0 and 1 occur."""
    t = draw(st.sampled_from(TOWERS))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    entry = st.sampled_from(t.subfield_codes(1))
    words = []
    for _ in range(draw(st.integers(0, 6))):
        free = draw(st.lists(st.lists(entry, min_size=n - k, max_size=n - k),
                             min_size=k, max_size=k))
        rows = [[int(i == j) for j in range(k)] + free[i] for i in range(k)]
        perm = draw(st.permutations(range(n)))
        words.append(Subspace(Mat(t, [[r[c] for c in perm] for r in rows],
                                  subdeg=1, ncols=n, check=False)))
    return SubspaceCode(t, n, words)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(subspace_codes())
def test_min_distance_equals_pairwise_minimum(sc):
    got = sc.min_distance()
    assert got == _pairwise_min(sc)
    assert (got is None) == (sc.size < 2)


def test_min_distance_of_empty_and_single_word_codes(f4):
    assert SubspaceCode(f4, 2, []).min_distance() is None
    assert SubspaceCode(f4, 2, [Subspace(Mat(f4, [[1, 1]]))]).min_distance() is None


def test_min_distance_guard_bounds_the_words(f16, monkeypatch):
    """A code of guard words is scanned; one more word is refused in lift's
    wording before any pair is compared."""
    sc = lift(_random_code(f16, 2, 3, 2, random.Random(70)), (1, 2))
    assert sc.size == 4
    assert sc.min_distance(guard=4) == _pairwise_min(sc)
    pairs = []
    monkeypatch.setattr(subspaces, "subspace_distance", lambda u, v: pairs.append((u, v)))
    with pytest.raises(TooLarge, match=r"^\|code\| = 4 exceeds guard 3$"):
        sc.min_distance(guard=3)
    assert pairs == []


def _scanned(sc):
    """The pairs and words min_distance reaches: its rows, over the words in
    the order of their packed bases, up to the first holding distance 2."""
    words = sorted(sc.words, key=lambda w: w._rref)
    for i in range(1, len(words)):
        if min(subspace_distance(words[i], v) for v in words[:i]) == 2:
            return i * (i + 1) // 2, i + 1
    return len(words) * (len(words) - 1) // 2, len(words)


# (field, l, m, dim, seed, pairs compared, words reached): F_2 and F_3 scans
# on masks, F_4 scans on join_rank; two stop early at distance 2
PAIR_GUARD_CASES = [("f16", 2, 4, 4, 13, 36, 9), ("f81", 2, 3, 2, 3, 36, 9),
                    ("f16_q4", 2, 3, 2, 0, 120, 16), ("f16_q4", 2, 4, 4, 0, 2080, 65)]


@pytest.mark.parametrize("field, l, m, dim, seed, pairs, words", PAIR_GUARD_CASES)
def test_min_distance_guard_bounds_the_pairs(request, field, l, m, dim, seed, pairs, words):
    """At guard = the pairs the scan compares, it computes; at one less it
    refuses, naming the pairs of the row that would pass the guard."""
    tower = request.getfixturevalue(field)
    sc = lift(_random_code(tower, l, m, dim, random.Random(seed)), tuple(range(1, l + 1)))
    assert _scanned(sc) == (pairs, words) and sc.size < pairs
    assert sc.min_distance(guard=pairs) == _pairwise_min(sc)
    with pytest.raises(TooLarge, match=rf"^{pairs} pairs of the first {words} words "
                                       rf"exceed guard {pairs - 1}$"):
        sc.min_distance(guard=pairs - 1)


@pytest.mark.parametrize("field, l, m, dim", [
    ("f16", 2, 4, 3), ("f16", 2, 13, 2), ("f81", 2, 3, 2), ("f81", 3, 3, 2),
    ("f16_q4", 2, 3, 2)])
def test_distance_law_builds_no_subspace(request, monkeypatch, field, l, m, dim):
    """The law scans the spans of the lifts as they are combined: with
    Subspace.__init__ patched to raise, its reports still equal the oracle's,
    on F_2 and F_3 scans on masks and on join_rank and in the list form."""
    tower = request.getfixturevalue(field)
    mc = _random_code(tower, l, m, dim, random.Random(l * 100 + m))
    pivots = [tuple(range(1, l + 1)), tuple(range(1, 2 * l + 1, 2))]
    want = [oracle.verify_distance_law(mc, p) for p in pivots]

    def trap(self, basis):
        raise AssertionError("a Subspace was built")

    monkeypatch.setattr(Subspace, "__init__", trap)
    assert [verify_distance_law(mc, p) for p in pivots] == want
    with pytest.raises(AssertionError, match="was built"):
        lift(mc, pivots[0])


def test_words_of_two_dimensions_are_refused(f4):
    with pytest.raises(BadParams):
        SubspaceCode(f4, 2, [Subspace(Mat(f4, [[1, 1]])), Subspace(Mat(f4, [[1, 0], [0, 1]]))])
