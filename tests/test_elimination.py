"""The elimination kernel against the Gauss-Jordan oracle it replaced.

Every fast path is compared with the slow path (the nullspace with one
read off the oracle's RREF) on random matrices of every row
representation: packed F_2 rows, F_3 rows as two bit planes, and tower
codes for F_5 and F_7 (prime fields past 3), F_4 inside F_16 (e = 2) and
the top fields of F_16 and F_81.  Shapes include
empty, zero-column, all-zero, full-rank, wide, tall and rank-deficient
matrices.
"""

import copy
import itertools
import random

import pytest

import gauss_jordan_oracle as oracle
from rmcodes import make_tower
from rmcodes.elimination import (
    _F2Span,
    _F3Span,
    _TowerSpan,
    decompose,
    flatten,
    solver,
    span,
)
from rmcodes.errors import NotInSpan, Singular
from rmcodes.matrices import Mat, inverse, rank, rref

FIELDS = {
    "F2": (lambda: make_tower(2, 1, 4, [1, 1, 0, 0, 1]), 1, _F2Span),
    "F3": (lambda: make_tower(3, 1, 4), 1, _F3Span),
    "F5": (lambda: make_tower(5, 1, 2), 1, _TowerSpan),
    "F7": (lambda: make_tower(7, 1, 2), 1, _TowerSpan),
    "F4-e2": (lambda: make_tower(2, 2, 2), 1, _TowerSpan),
    "F16-top": (lambda: make_tower(2, 1, 4, [1, 1, 0, 0, 1]), 4, _TowerSpan),
    "F81-top": (lambda: make_tower(3, 1, 4), 4, _TowerSpan),
}

SHAPES = [(0, 3), (3, 0), (1, 1), (2, 2), (3, 3), (4, 4), (2, 6), (5, 2),
          (6, 3), (3, 7)]


def _combo(tower, codes, rows, ncols, rnd):
    out = [0] * ncols
    for r in rows:
        c = rnd.choice(codes)
        out = [tower.add(x, tower.mul(c, y)) for x, y in zip(out, r)]
    return out


def _matrices(tower, subdeg, rnd):
    """Random matrices of every shape: dense, all-zero, and with rows that
    are combinations of earlier rows (so ranks fall short)."""
    codes = tower.subfield_codes(subdeg)
    for nrows, ncols in SHAPES:
        yield Mat(tower, [[0] * ncols for _ in range(nrows)], subdeg,
                  check=False, ncols=ncols)
        for dependent in (False, True, True):
            rows = []
            for i in range(nrows):
                if dependent and i and rnd.random() < 0.5:
                    rows.append(_combo(tower, codes, rows, ncols, rnd))
                else:
                    rows.append([rnd.choice(codes) for _ in range(ncols)])
            yield Mat(tower, rows, subdeg, check=False, ncols=ncols)


@pytest.fixture(params=sorted(FIELDS))
def field(request):
    build, subdeg, rep = FIELDS[request.param]
    return build(), subdeg, rep


def test_representation_follows_the_field(field):
    tower, subdeg, rep = field
    assert type(span(tower, 3, subdeg)) is rep


def test_rref_and_rank_match_oracle(field):
    tower, subdeg, _ = field
    rnd = random.Random(1)
    for M in _matrices(tower, subdeg, rnd):
        got, want = rref(M), oracle.rref(M)
        assert got.rref == want.rref
        assert got.pivots == want.pivots
        assert rank(M) == oracle.rank(M)
        if subdeg == 1 and M.nrows:
            assert tower.fq_rank(M.rows) == want.rank


def test_inverse_matches_oracle(field):
    tower, subdeg, _ = field
    rnd = random.Random(2)
    singular = invertible = 0
    for M in _matrices(tower, subdeg, rnd):
        if M.nrows != M.ncols:
            continue
        try:
            want = oracle.inverse(M)
        except Singular:
            singular += 1
            with pytest.raises(Singular):
                inverse(M)
            continue
        invertible += 1
        assert inverse(M) == want
    assert singular and invertible


def test_row_decompose_matches_oracle(field):
    """decompose over a solver of M's rows solves C @ M = targets: equal to
    the oracle whenever the rows are independent (the solution is unique);
    on dependent rows any solution is correct, so check it solves."""
    tower, subdeg, _ = field
    rnd = random.Random(3)
    codes = tower.subfield_codes(subdeg)
    outside = 0

    def row_decompose(targets, M):
        s = solver(M.tower, M.rows, M.ncols, M.subdeg)
        return Mat(M.tower, decompose(s, targets), M.subdeg, check=False)

    for M in _matrices(tower, subdeg, rnd):
        inside = [_combo(tower, codes, M.rows, M.ncols, rnd) for _ in range(3)]
        free = [[rnd.choice(codes) for _ in range(M.ncols)] for _ in range(2)]
        for targets in (inside, inside + free):
            try:
                want = oracle.row_decompose(targets, M)
            except NotInSpan:
                outside += 1
                with pytest.raises(NotInSpan):
                    row_decompose(targets, M)
                continue
            got = row_decompose(targets, M)
            if oracle.rank(M) == M.nrows:
                assert got == want
            else:
                assert (got @ M).rows == tuple(tuple(t) for t in targets)
    assert outside


def test_nullspace_matches_oracle(field):
    """Span.relations of [rows | I]: every vector annihilates the rows,
    there are n - rank of them, and they span the oracle's nullspace."""
    tower, subdeg, _ = field
    rnd = random.Random(6)
    deficient = full = 0
    for M in _matrices(tower, subdeg, rnd):
        n = M.nrows
        s = span(tower, M.ncols, subdeg, extra=n)
        got = s.relations(s.pack(tuple(r) + tuple(int(i == j) for j in range(n)))
                          for i, r in enumerate(M.rows))
        r = oracle.rank(M)
        assert len(got) == M.nrows - r
        deficient += r < M.nrows
        full += r == M.nrows > 0
        for c in got:
            assert len(c) == M.nrows
            assert tower.add_scaled([0] * M.ncols, c, M.rows) == [0] * M.ncols
        basis = [Mat(tower, vs, subdeg, check=False, ncols=M.nrows)
                 for vs in (got, oracle.nullspace(M))]
        assert oracle.rref(basis[0]) == oracle.rref(basis[1])
    assert deficient and full


@pytest.mark.parametrize("name", ["F2", "F3", "F4-e2"])
def test_rows_in_kernel_form_match_oracle(name):
    """Rows made in the kernel's own form (pack, at a column, and combine)
    and eliminated as they are: combine is add_scaled, and relations of
    [rows | I] is the oracle's nullspace basis itself, row for row."""
    build, subdeg, _ = FIELDS[name]
    tower = build()
    rnd = random.Random(7)
    codes = tower.subfield_codes(subdeg)
    for M in _matrices(tower, subdeg, rnd):
        n, w = M.nrows, M.ncols
        s = span(tower, w, subdeg, extra=n)
        rows = [s.combine((1, 1, 1), (s.pack(r[:w // 2]), s.pack(r[w // 2:], w // 2),
                                      s.pack((1,), w + i)))
                for i, r in enumerate(M.rows)]
        assert s.relations(rows) == oracle.nullspace(M)
        coeffs = [rnd.choice(codes) for _ in range(n)]
        want = tower.add_scaled([0] * w, coeffs, M.rows) + [0] * n
        assert s._unpack(s.combine(coeffs, [s.pack(r) for r in M.rows])) == tuple(want)
        assert s.rank == 0  # relations only borrows the span's form


def test_span_matches_reducer(field):
    """After every add the span answers as the reducer does; a twin whose
    rows() is never read between adds answers alike, so reading changes
    nothing."""
    tower, subdeg, _ = field
    rnd = random.Random(4)
    codes = tower.subfield_codes(subdeg)
    for M in _matrices(tower, subdeg, rnd):
        s, twin = span(tower, M.ncols, subdeg), span(tower, M.ncols, subdeg)
        ref = oracle.Reducer(tower, M.ncols)
        for row in M.rows:
            assert s.add(row) == twin.add(row) == ref.add(row)
            assert s.rows() == [tuple(r) for _, r in ref.rows]
            assert s.pivots == tuple(c + 1 for c, _ in ref.rows)
            probes = [[rnd.choice(codes) for _ in range(M.ncols)],
                      _combo(tower, codes, M.rows, M.ncols, rnd)]
            for vec in probes:
                assert s.contains(vec) == twin.contains(vec) == ref.contains(vec)
                assert s.reduce(vec) == twin.reduce(vec) == tuple(ref.reduce(vec))
        assert s.rank == twin.rank == ref.rank
        assert twin.rows() == s.rows() == [tuple(r) for _, r in ref.rows]
        assert twin.pivots == s.pivots


def test_extended_leaves_the_source(field):
    """extended copies the basis, and in packed forms its pivot mask: the source
    answers as before, and the copy is the span of all the rows, or None
    when a row depends on the rows before it."""
    tower, subdeg, cls = field
    rnd = random.Random(8)
    codes = tower.subfield_codes(subdeg)
    for M in _matrices(tower, subdeg, rnd):
        head, tail = M.rows[:M.nrows // 2], M.rows[M.nrows // 2:]
        src = span(tower, M.ncols, subdeg, head)

        def state():
            return (src.rank, src.pivots, src.rows(), dict(src._basis),
                    getattr(src, "_mask", None))

        before = state()
        new = src.extended(tail)
        assert state() == before
        whole = span(tower, M.ncols, subdeg, M.rows)
        if whole.rank < src.rank + len(tail):
            assert new is None
            continue
        assert type(new) is cls and new._basis is not src._basis
        assert new.rows() == whole.rows()
        if cls in (_F2Span, _F3Span):
            assert new._mask == whole._mask
        new.add([rnd.choice(codes) for _ in range(M.ncols)])  # the copy grows alone
        assert state() == before


def test_join_rank_is_rank_of_stacked_rows(field):
    """join_rank eliminates only residuals, so check it both ways round, and
    on a span with itself, against the oracle rank of the stacked rows on
    the first three columns (where pivots lie), with no extra columns and
    with two; the spans include rank 0 (no rows, zero rows, rows zero
    before the extra columns) and full ones (the identity).  Neither span
    may change: basis items and their order, rank, pivots, rows() and, in
    packed forms, the pivot mask, which holds the top bit of each basis key."""
    tower, subdeg, _ = field
    rnd = random.Random(5)
    codes = tower.subfield_codes(subdeg)
    mats = [M.rows for M in _matrices(tower, subdeg, rnd) if M.ncols == 3]
    mats += [(), ((1, 0, 0), (0, 1, 0), (0, 0, 1))]

    def state(s):
        if type(s) in (_F2Span, _F3Span):
            assert s._mask == sum(1 << n - 1 for n in s._basis)
        return (list(copy.deepcopy(s._basis).items()), s.rank, s.pivots, s.rows(),
                getattr(s, "_mask", None))

    for extra in (0, 2):
        spans = []
        for rows in mats:
            rows = [tuple(r) + tuple(rnd.choice(codes) for _ in range(extra)) for r in rows]
            spans.append((span(tower, 3, subdeg, rows, extra), rows))
        for sa, a in spans:
            assert sa.rank == oracle.rank(Mat(tower, [r[:3] for r in a], subdeg,
                                              check=False, ncols=3))
            for sb, b in spans:
                before = state(sa), state(sb)
                stacked = Mat(tower, [r[:3] for r in a + b], subdeg, check=False, ncols=3)
                assert sa.join_rank(sb) == sb.join_rank(sa) == oracle.rank(stacked)
                assert (state(sa), state(sb)) == before
            assert sa.join_rank(sa) == sa.rank


def test_f3_planes_past_bit_64(f81):
    """Every F_3 sum and difference of two entries, at columns 64 and 66 of
    a 130-column row (bits 65 and 63 of each plane): combine and reduce
    unpack to the entries computed mod 3."""
    n = 130

    def row(entries):
        r = [0] * n
        for col, x in entries.items():
            r[col] = x
        return r

    for c1, c2, x, y in itertools.product(range(3), repeat=4):
        a, b = row({64: x, 66: y}), row({64: y, 66: x, 129: 1})
        s = span(f81, n)
        assert type(s) is _F3Span
        want = tuple((c1 * u + c2 * w) % 3 for u, w in zip(a, b))
        assert s._unpack(s.combine((c1, c2), (s.pack(a), s.pack(b)))) == want
        r, v = row({0: 1, 64: x, 66: y}), row({0: c1, 64: c2, 66: c2, 129: c1})
        assert span(f81, n, 1, [r]).reduce(v) == tuple((u - c1 * w) % 3 for u, w in zip(v, r))


def test_flatten_is_row_major():
    assert flatten(((1, 2), (3, 4))) == (1, 2, 3, 4)
    assert flatten(()) == ()


def test_join_rank_across_representations(f16):
    """F_2 rows tagged with the top field sit in a tower-arithmetic span."""
    rows = [(1, 0, 1), (0, 1, 1)]
    packed, generic = span(f16, 3, 1), span(f16, 3, 4)
    packed.add(rows[0])
    generic.add(rows[1])
    assert packed.join_rank(generic) == generic.join_rank(packed) == 2
    generic.add(rows[0])
    assert packed.join_rank(generic) == 2
