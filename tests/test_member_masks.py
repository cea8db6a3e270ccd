"""Subspace distances counted from member masks, against join_rank.

Over F_2 and F_3 the kernel reads a packed row as one integer, a member
index, and Span.member_mask() sets the bit of every member of a span, so
|U n V| = popcount(mask_U & mask_V) = q^dim(U n V).  The pairwise scans
(verify_distance_law, SubspaceCode.min_distance) count their distances so
where elimination.member_masks gives masks: rows of at most MASK_BITS
bits, words of at most as many members as there are words, and masks
that fit SCAN_MASK_BITS bits in all; otherwise they run one join_rank per
pair, as subspace_distance does, which is the oracle here: on every pair of
subspaces of F_2^4 and F_3^3, on random subspaces at widths on both sides
of MASK_BITS, on scans on both sides of the member bound, on a code just
over the memory bound, and in the scans against the per-pair check of
distance_law_oracle.
"""

import itertools
import random

import pytest

import distance_law_oracle as oracle
from rmcodes import (
    Mat,
    MatrixCode,
    Subspace,
    SubspaceCode,
    lift,
    subspace_distance,
    verify_distance_law,
)
from rmcodes import subspaces
from rmcodes.elimination import (
    MASK_BITS,
    SCAN_MASK_BITS,
    Span,
    _F2Span,
    _F3Span,
    flatten,
    member_masks,
    span,
)


def _all_subspaces(tower, n):
    """Every subspace of F_q^n, grown one vector at a time from zero."""
    vectors = list(itertools.product(tower.subfield_codes(1), repeat=n))
    level = {Subspace(span(tower, n))}
    found = set(level)
    while level:
        level = {Subspace(s) for U in level for v in vectors
                 if (s := U._span.extended([v])) is not None}
        found |= level
    return sorted(found, key=lambda U: U._rref)


def _mask_distance(U, V):
    """dim U + dim V - 2 dim(U n V), dim(U n V) counted from the masks."""
    common = (U._span.member_mask() & V._span.member_mask()).bit_count()
    k = next(k for k in range(U.n + 1) if U.tower.p ** k >= common)
    assert U.tower.p ** k == common
    return U.dim + V.dim - 2 * k


def _random_subspace(tower, n, k, rnd):
    base = tower.subfield_codes(1)
    while True:
        U = Subspace(span(tower, n, 1, [[rnd.choice(base) for _ in range(n)]
                                        for _ in range(k)]))
        if U.dim == k:
            return U


@pytest.mark.parametrize("field, n, count", [("f16", 4, 67), ("f81", 3, 28)])
def test_every_pair_of_a_small_space(request, field, n, count):
    tower = request.getfixturevalue(field)
    spaces = _all_subspaces(tower, n)
    assert len(spaces) == count  # sum over k of the Gaussian binomials [n, k]_q
    for U in spaces:
        assert U._span.member_mask().bit_count() == tower.p ** U.dim
    for U, V in itertools.product(spaces, repeat=2):
        assert _mask_distance(U, V) == subspace_distance(U, V)


@pytest.mark.parametrize("field, widths", [("f16", (13, 14, 15)), ("f81", (6, 7, 8))])
def test_random_subspaces_of_unequal_dimensions(request, field, widths):
    tower = request.getfixturevalue(field)
    rnd = random.Random(3)
    for n in widths:
        for _ in range(12):
            U = _random_subspace(tower, n, rnd.randrange(n + 1), rnd)
            V = _random_subspace(tower, n, rnd.randrange(n + 1), rnd)
            assert _mask_distance(U, V) == subspace_distance(U, V)


def test_member_indices(f16, f81):
    assert span(f16, 3, 1, [[1, 1, 0]]).member_mask() == 1 << 0 | 1 << 0b110
    # ones | twos << 3: 0, then (1, 2, 0) at 0b100 | 0b010 << 3 and (2, 1, 0)
    # at 0b010 | 0b100 << 3
    assert span(f81, 3, 1, [[1, 2, 0]]).member_mask() == 1 << 0 | 1 << 20 | 1 << 34


def test_which_spans_get_masks(f16, f81, f16_q4):
    def masked(tower, n, count, rank=1):
        rows = [[int(i == j) for j in range(n)] for i in range(rank)]
        return member_masks([span(tower, n, 1, rows)] * count) is not None

    # the member index has n bits over F_2, 2n over F_3: MASK_BITS = 14
    assert masked(f16, 14, 2) and not masked(f16, 15, 2)
    assert masked(f81, 7, 3) and not masked(f81, 8, 3)
    assert not masked(f16_q4, 3, 4)  # the list form has no masks
    # no more members per span than there are spans: q**rank <= len(spans)
    assert masked(f16, 8, 16, 4) and not masked(f16, 8, 15, 4)
    assert masked(f81, 6, 9, 2) and not masked(f81, 6, 8, 2)
    assert member_masks([]) is None
    # 14-bit masks take 2**14 bits each, so 2**26 bits hold 4096 of them
    assert SCAN_MASK_BITS >> MASK_BITS == 4096
    assert masked(f16, 14, 4096) and not masked(f16, 14, 4097)
    assert masked(f16, 13, 8192) and not masked(f16, 13, 8193)


def _count_masks(monkeypatch):
    """A list that gains one entry per member_mask call."""
    calls = []
    for cls in (_F2Span, _F3Span):
        def counted(self, build=cls.member_mask):
            calls.append(self)
            return build(self)
        monkeypatch.setattr(cls, "member_mask", counted)
    return calls


# (field, word dimension, count of words, widths with masks, widths without)
ROW_CASES = [("f16", 3, 10, (13, 14), (15,)), ("f81", 2, 10, (6, 7), (8,)),
             ("f16", 4, 16, (8,), ()), ("f16", 4, 15, (), (8,)),
             ("f81", 3, 27, (4,), ()), ("f81", 3, 26, (), (4,))]


@pytest.mark.parametrize("field, k, count, masked, unmasked", ROW_CASES)
def test_scan_rows_on_both_sides_of_the_bounds(request, monkeypatch, field, k, count,
                                               masked, unmasked):
    tower = request.getfixturevalue(field)
    calls = _count_masks(monkeypatch)
    rnd = random.Random(5)
    for n in masked + unmasked:
        words = [_random_subspace(tower, n, k, rnd) for _ in range(count)]
        del calls[:]
        rows = list(subspaces._distance_rows([w._span for w in words]))
        assert rows == [[subspace_distance(u, v) for v in words[:i]]
                        for i, u in enumerate(words)]
        assert len(calls) == (len(words) if n in masked else 0)


def _lines(tower, n, count):
    """count distinct lines of F_2^n, any two at subspace distance 2."""
    return [Subspace(span(tower, n, 1, [[v >> n - 1 - j & 1 for j in range(n)]]))
            for v in range(1, count + 1)]


def test_a_code_over_the_memory_bound_falls_back_to_elimination(f16, monkeypatch):
    calls = _count_masks(monkeypatch)
    pairs = []
    join_rank = Span.join_rank

    def counted(u, v):
        pairs.append((u, v))
        return join_rank(u, v)

    monkeypatch.setattr(Span, "join_rank", counted)
    over = SubspaceCode(f16, 14, _lines(f16, 14, 4097))
    assert over.min_distance() == 2
    assert (len(calls), len(pairs)) == (0, 1)  # one join_rank, then the exit at 2
    at = SubspaceCode(f16, 14, _lines(f16, 14, 4096))
    assert at.min_distance() == 2
    assert (len(calls), len(pairs)) == (2, 1)  # masks built only as far as the exit


def _random_code(tower, l, m, dim, rnd):
    base, s, mats = tower.subfield_codes(1), span(tower, l * m), []
    while len(mats) < dim:
        A = Mat(tower, [[rnd.choice(base) for _ in range(m)] for _ in range(l)],
                subdeg=1, check=False)
        if s.add(flatten(A.rows)):
            mats.append(A)
    return MatrixCode(tower, l, m, mats)


# lifts of l x m codes at n = l + m on both sides of MASK_BITS, codes of
# fewer words than a word has members (q**dim < q**l), and the list form
SCAN_CASES = [("f16", 2, 12, 4), ("f16", 2, 13, 4), ("f16", 3, 4, 6), ("f16", 3, 4, 2),
              ("f81", 2, 5, 2), ("f81", 2, 6, 2), ("f81", 3, 4, 3), ("f81", 3, 3, 2),
              ("f16_q4", 2, 3, 2)]


@pytest.mark.parametrize("field, l, m, dim", SCAN_CASES)
def test_scans_match_the_per_pair_oracle(request, field, l, m, dim):
    tower = request.getfixturevalue(field)
    rnd = random.Random(l * 100 + m)
    mc = _random_code(tower, l, m, dim, rnd)
    for pivots in (tuple(range(1, l + 1)), tuple(sorted(rnd.sample(range(1, l + m + 1), l)))):
        want = oracle.verify_distance_law(mc, pivots)
        assert verify_distance_law(mc, pivots) == want
        assert lift(mc, pivots).min_distance() == want.ds_min
        _, words = oracle.lifted(mc, pivots)
        assert SubspaceCode(tower, l + m, words).min_distance() == min(
            subspace_distance(u, v) for u, v in itertools.combinations(words, 2))
